// Internal seam between the allocator factory and the models
// (alloc/factory.cpp routes public names here):
//
//   make_model - the deterministic size-class models over operator new
//                (alloc/modeled_allocator.cpp), flavours je|tc|mi|system.
#pragma once

#include <memory>
#include <string>

#include "alloc/allocator.hpp"

namespace emr::alloc::detail {

/// flavor: "je" | "tc" | "mi" | "system". Throws on anything else.
std::unique_ptr<Allocator> make_model(const std::string& flavor,
                                      const AllocConfig& cfg);

}  // namespace emr::alloc::detail
