#include "sched/presched.hpp"

#include <cstdint>

#include "common/assert.hpp"

namespace pmx {

bool preschedule_cell(bool r, bool b_star, bool b_s) {
  if (!r) {
    return b_s;  // release if realized in this slot
  }
  return !b_star;  // establish if not realized anywhere
}

// pmx-hot
void preschedule_into(const BitMatrix& requests, const BitMatrix& established,
                      const BitMatrix& slot_config, BitMatrix& out) {
  const std::size_t n = requests.size();
  PMX_CHECK(established.size() == n && slot_config.size() == n &&
                out.size() == n,
            "preschedule matrix size mismatch");
  for (std::size_t u = 0; u < n; ++u) {
    const auto r = requests.row(u).words();
    const auto bstar = established.row(u).words();
    const auto bs = slot_config.row(u).words();
    out.write_row(u, [&](std::size_t w) -> std::uint64_t {
      return (~r[w] & bs[w]) | (r[w] & ~bstar[w]);
    });
  }
}

BitMatrix preschedule_ref(const BitMatrix& requests,
                          const BitMatrix& established,
                          const BitMatrix& slot_config) {
  const std::size_t n = requests.size();
  PMX_CHECK(established.size() == n && slot_config.size() == n,
            "preschedule matrix size mismatch");
  BitMatrix l(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (preschedule_cell(requests.get(u, v), established.get(u, v),
                           slot_config.get(u, v))) {
        l.set(u, v);
      }
    }
  }
  return l;
}

}  // namespace pmx
