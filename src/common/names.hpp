// Numbered names for threads, locks and scenarios ("t0", "t1", ...).
//
// Built by appending to the prefix rather than as `"t" + std::to_string(i)`:
// that operator+(const char*, std::string&&) overload inserts at the front,
// and once inlined at -O3 GCC 12 reports a false-positive -Wrestrict in it,
// which breaks -Werror builds.
#pragma once

#include <string>
#include <string_view>

namespace rvk {

inline std::string indexed_name(std::string_view prefix, long long index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace rvk
