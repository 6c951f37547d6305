// The repository benchmark's binary (see perfbench/README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   perfbench --selftest [--seed N] [--out DIR]
//
// Prints each metric as "name value unit", then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when a run fails or its store disagrees with the oracle.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/selftest.h"
#include "perfbench/workloads.h"
#include "src/common/file_util.h"

namespace {

using perfbench::Metric;

// The default workload seed, and the held-out seed kept back for validating
// later performance claims (README.md "Seeds").
constexpr uint64_t kDefaultSeed = 42;
constexpr uint64_t kHeldOutSeed = 20221;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string ResultJson(const perfbench::Report& rep, const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (rep.correct ? "true" : "false") << ", \"attempted\": " << rep.attempted
    << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    o << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
      << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

int Usage() {
  std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR]\n       perfbench --selftest [--seed N] [--out DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  opts.seed = kDefaultSeed;
  opts.out_dir = ".bench_out";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--out" && has_value) {
      opts.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!gadget::CreateDirIfMissing(opts.out_dir).ok()) {
    std::cerr << "cannot create " << opts.out_dir << "\n";
    return 1;
  }
  if (selftest) {
    return perfbench::RunSelfTest(opts.seed, kHeldOutSeed, opts.out_dir, std::cout);
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || opts.seconds <= 0) {
    return Usage();
  }

  std::cout << "workload " << spec->name << " seed " << opts.seed << " seconds " << opts.seconds
            << " trace " << (opts.trace ? 1 : 0) << std::endl;
  perfbench::Report rep;
  const gadget::Status s = perfbench::RunWorkload(*spec, opts, &rep, std::cerr);
  if (!s.ok()) {
    std::cerr << "perfbench: " << spec->name << " failed: " << s.ToString() << "\n";
    return 1;
  }
  for (const Metric& m : rep.end_to_end) {
    std::cout << m.name << " " << Num(m.value) << " " << m.unit << "\n";
  }
  const double failed_ratio =
      rep.attempted == 0 ? 0 : static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  std::cout << "failed_ratio " << Num(failed_ratio) << " ratio\n";
  for (const Metric& m : rep.per_layer) {
    std::cout << m.name << " " << Num(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& note : rep.notes) {
    std::cout << "# " << note << "\n";
  }
  const std::string json = ResultJson(rep, opts.trace ? rep.per_layer : rep.end_to_end);
  // The seed-stamped record of this result.
  const std::string path = opts.out_dir + "/result-" + spec->name + "-seed" +
                           std::to_string(opts.seed) + "-trace" + (opts.trace ? "1" : "0") +
                           ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"result\": %s}\n",
                 spec->name.c_str(), static_cast<unsigned long long>(opts.seed), json.c_str());
    std::fclose(f);
  }
  std::cout << json << std::endl;
  if (!rep.correct || rep.failed != 0) {
    std::cerr << "perfbench: " << spec->name << " did not pass the oracle gate\n";
    return 1;
  }
  return 0;
}
