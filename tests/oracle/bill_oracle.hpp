#pragma once
// A deliberately naive reference biller for the paper's cost model, written
// from Sec. 4.2.3 rather than from src/sim: it reads the raw TierPrice
// fields, prices every file-day in one scalar loop and accumulates in
// long double. It shares no code with the simulator beyond the price table
// and the trace it reads, so a bug in the cost model, the billing kernel or
// the exact accumulators shows up as a disagreement here.
//
// For one file of size S (GB) in tier k on day t, with r reads and w
// writes (per day):
//   Cs = u_p(k) * S / days_per_month                 (Eq. 6, one day)
//   Cr = r * (u_rf(k) + u_rs(k) * S)                 (Eq. 7)
//   Cw = w * (u_wf(k) + u_ws(k) * S)                 (Eq. 8)
//   Cc = [k != previous tier] * u_tran * S           (Eq. 9)
//   C  = Cs + Cc + Cr + Cw                           (Eq. 5)
// where the price sheet quotes u_rf and u_wf per 10,000 operations. The
// first billed day's change is charged only with charge_initial.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pricing/policy.hpp"
#include "trace/trace.hpp"

namespace minicost::oracle {

/// Bill components in the order storage, read, write, change.
using Components = std::array<long double, 4>;

struct OracleBill {
  std::vector<Components> per_day;          ///< index = billed day
  std::vector<long double> per_file;        ///< index = FileId
  std::vector<std::uint64_t> changes_per_day;
};

/// Bills plan[t][i] (tier of file i on trace day first_day + t), starting
/// from `initial[i]`.
inline OracleBill oracle_bill(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& policy,
    const std::vector<std::vector<pricing::StorageTier>>& plan,
    std::size_t first_day, const std::vector<pricing::StorageTier>& initial,
    bool charge_initial) {
  const std::size_t days = plan.size();
  const std::size_t files = trace.file_count();
  OracleBill bill{std::vector<Components>(days, Components{}),
                  std::vector<long double>(files, 0.0L),
                  std::vector<std::uint64_t>(days, 0)};
  const long double days_per_month = policy.days_per_month();
  const long double u_tran = policy.tier_change_per_gb();
  for (std::size_t t = 0; t < days; ++t) {
    for (std::size_t i = 0; i < files; ++i) {
      const trace::FileRecord& f = trace.files()[i];
      const pricing::StorageTier tier = plan[t][i];
      const pricing::StorageTier previous = t == 0 ? initial[i] : plan[t - 1][i];
      const pricing::TierPrice& p = policy.tier(tier);
      const long double size = f.size_gb;
      const long double reads = f.reads[first_day + t];
      const long double writes = f.writes[first_day + t];
      Components c{};
      c[0] = static_cast<long double>(p.storage_gb_month) * size / days_per_month;
      c[1] = reads * (static_cast<long double>(p.read_per_10k_ops) / 10000.0L +
                      static_cast<long double>(p.read_per_gb) * size);
      c[2] = writes * (static_cast<long double>(p.write_per_10k_ops) / 10000.0L +
                       static_cast<long double>(p.write_per_gb) * size);
      if (tier != previous) {
        ++bill.changes_per_day[t];
        if (t > 0 || charge_initial) c[3] = u_tran * size;
      }
      for (std::size_t k = 0; k < 4; ++k) {
        bill.per_day[t][k] += c[k];
        bill.per_file[i] += c[k];
      }
    }
  }
  return bill;
}

}  // namespace minicost::oracle
