// Allocator factory. Public names:
//
//   je | tc | mi        - the paper's three allocators, as deterministic
//                         size-class models (docs/ALLOCATORS.md).
//   je_model | tc_model
//   | mi_model          - the same models under their explicit names.
//   system              - operator new/delete with stats only.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"

namespace emr::alloc {

/// Builds the named allocator. Throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          const AllocConfig& cfg);

/// The names make_allocator accepts (including the *_model aliases).
const std::vector<std::string>& allocator_names();

}  // namespace emr::alloc
