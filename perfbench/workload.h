// Workload definitions of the statement-level benchmark. A workload
// makes its inputs from a seed, loads them into a fresh platform (the
// timed set-up), computes the reference result of each statement class
// once, and then hands out statements class by class; the runner
// executes them in a closed loop and asks the workload to check each
// result.

#ifndef HANA_PERFBENCH_WORKLOAD_H_
#define HANA_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace hana::perfbench {

/// Time spent inside storage during one set-up, and the raw size of the
/// rows loaded (8 bytes per numeric/date value, string length for
/// strings).
struct SetupTimes {
  double load_ms = 0;   // Catalog::Insert calls.
  double merge_ms = 0;  // Catalog::MergeDelta calls.
  double input_bytes = 0;
};

/// One statement class: statements of a class do the same work, so
/// their latencies are comparable and summarized together.
struct StatementClass {
  std::string name;
  int tpch_query = 0;  // TPC-H query number, 0 when not a TPC-H query.
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual double scale_factor() const = 0;
  virtual const std::vector<StatementClass>& classes() const = 0;

  /// Makes the inputs from `seed`; not part of the timed set-up.
  virtual void Generate(uint64_t seed) = 0;
  /// Loads the inputs into a freshly constructed platform: DDL, bulk
  /// load, delta merge, remote-source registration (timed).
  virtual void Load(platform::Platform& db, SetupTimes* times) = 0;
  /// Frees the generated inputs once every set-up is done.
  virtual void DropInputs() = 0;
  /// Computes each class's reference result on the loaded platform.
  virtual void Prepare(platform::Platform& db) = 0;
  /// The next statement of class `c`. May reconfigure `db` for it
  /// (e.g. the federation strategy). Classes are asked in round-robin
  /// order, and every statement handed out is executed before the next
  /// call.
  virtual std::string Next(platform::Platform& db, size_t c) = 0;
  /// True when `result` is what the last statement of class `c` must
  /// return.
  virtual bool Check(size_t c, const platform::ExecResult& result) = 0;
};

/// The workload named `name`, or null when there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Names of all workloads.
std::vector<std::string> WorkloadNames();

}  // namespace hana::perfbench

#endif  // HANA_PERFBENCH_WORKLOAD_H_
