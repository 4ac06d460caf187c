// Name routing for the allocator factory: every public name resolves to
// a model flavour in alloc/backends.hpp, and "<flavor>_model" is an
// alias of the bare flavour.
#include <stdexcept>

#include "alloc/backends.hpp"
#include "alloc/factory.hpp"

namespace emr::alloc {

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          const AllocConfig& cfg) {
  if (name == "je_model" || name == "tc_model" || name == "mi_model") {
    return detail::make_model(name.substr(0, 2), cfg);
  }
  if (name == "je" || name == "tc" || name == "mi" || name == "system") {
    return detail::make_model(name, cfg);
  }
  throw std::invalid_argument("unknown allocator: " + name);
}

const std::vector<std::string>& allocator_names() {
  static const std::vector<std::string> kNames = {
      "je", "tc", "mi", "system", "je_model", "tc_model", "mi_model"};
  return kNames;
}

}  // namespace emr::alloc
