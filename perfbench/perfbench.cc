// perfbench: the end-to-end benchmark of record (perfbench/NOTES.md).
//
//   perfbench --workload=check-mix|serve-hot|serve-churn --seed=N
//             --seconds=S --trace=0|1 --serve-binary=PATH
//             --inputs=DIR [--small]
//
// Runs one seeded workload against the real pipeline — in process for
// check-mix, through a spawned xmlvc-serve over loopback for the serve
// workloads (whose traced run also hosts the same server in process) —
// checks every verdict against answers that do not come
// from the pipeline under test, and prints a report followed by one
// JSON result line:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer
// metrics. Exit code 0 only when every verdict passed its gate.
// Normally invoked through perfbench/run.py, which builds this binary
// and records the run environment.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker/document_checker.h"
#include "core/canonical.h"
#include "core/consistency.h"
#include "core/specification.h"
#include "inputs.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using namespace xmlverify;

// Per-request time limit for decided_share. It sits far above the
// slowest instance of every workload (check-mix's CNF reductions take
// well under 0.2 s on a 4-vCPU VM); the service gets the same ceiling.
constexpr double kTimeLimitMs = 10000;
// Every measured thread — the check-mix caller, the serve clients and
// the whole xmlvc-serve process — runs on one CPU. On a shared host a
// request that hops between CPUs waits for each idle virtual CPU to be
// scheduled again, and that wait swung serve throughput 4x from run to
// run; on one CPU the same hand-offs are plain context switches and the
// figures track the program. The CPU is chosen at start (BenchCpu), so
// that a CPU already busy with other work is avoided. Known-answer work
// after the window uses every CPU.
const int kBenchCpu = BenchCpu();
// serve-churn drives 2 connections, so hits queue behind cold checks.
// serve-hot drives 1: two closed-loop connections on one CPU settle
// into one of two phase patterns per run (one request waiting behind
// the other, or not), which made its p50 read 0.033 or 0.047 ms from
// run to run with the same code.
constexpr int kHotConnections = 1;
constexpr int kChurnConnections = 2;
constexpr int kServeWorkers = 2;
constexpr int kSetupRepetitions = 7;
// trace.overhead_share compares the same fixed work untraced and traced
// in alternating blocks this many check-mix inputs (or serve requests
// per connection) long, the order flipping from block to block, so the
// host's speed drift over seconds falls on both sides alike.
constexpr int64_t kMixOverheadBlock = 2 * kRoundSize;
constexpr size_t kServeOverheadBlock = 1000;
constexpr uint64_t kSetupSeed = 0;  // check-mix set-up specs, for every seed
// The layer ledger closes when unattributed time stays below this
// share of the traced pass's wall time.
constexpr double kLedgerTolerance = 0.02;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string serve_binary;
  std::string inputs_dir;
};

// ------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, false});
  }
  void Count(const std::string& name, int64_t value) {
    metrics_.push_back({name, static_cast<double>(value), "count", true});
  }
  void Note(const std::string& line) { std::printf("# %s\n", line.c_str()); }
  void Attempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  void Wrong(const std::string& what) {
    if (wrong_ < 20) Note("WRONG: " + what);
    ++wrong_;
  }
  bool correct() const { return wrong_ == 0 && attempted_ > 0; }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": " + std::string(correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      if (m.integral) {
        std::snprintf(value, sizeof(value), "%" PRId64,
                      static_cast<int64_t>(m.value));
      } else {
        std::snprintf(value, sizeof(value), "%.17g", m.value);
      }
      json += (i ? ", " : "") + trace::JsonQuote(m.name) + ": {\"value\": " +
              value + ", \"unit\": " + trace::JsonQuote(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t wrong_ = 0;
};

// Latency sample -> the end-to-end metrics every workload reports.
struct Window {
  std::vector<double> latency_ms;  // one per attempt
  std::vector<double> done_s;      // completion, seconds into the window
  std::vector<char> decided_flags;
  int64_t decided = 0;             // definitive verdicts within the limit
  int64_t attempted = 0;
  int64_t failed = 0;              // errors, sheds, timeouts, wrong verdicts
  double seconds = 0;
  double cpu_ms = 0;
  double peak_rss_mb = 0;
};

// Throughput is the median of the window's slice throughputs: the
// window is cut into up to 40 equal slices of at least 1000 attempts
// each, so a burst of interference from outside the program moves a
// few slices and not the figure. Latency percentiles are taken over
// every attempt of the window. Every slice is printed in the report.
struct SliceFigures {
  int slices = 1;
  double throughput = 0, p50 = 0, p99 = 0;
  size_t min_samples = 0;
  std::string detail;  // per-slice figures, for the report
};

SliceFigures Sliced(const Window& w) {
  SliceFigures f;
  f.slices = static_cast<int>(std::clamp<size_t>(w.latency_ms.size() / 1000, 1, 40));
  const double slice_s = w.seconds / f.slices;
  std::vector<std::vector<double>> latency(static_cast<size_t>(f.slices));
  std::vector<double> decided(static_cast<size_t>(f.slices), 0);
  for (size_t i = 0; i < w.latency_ms.size(); ++i) {
    size_t slice = static_cast<size_t>(std::clamp(
        static_cast<int>(w.done_s[i] / slice_s), 0, f.slices - 1));
    latency[slice].push_back(w.latency_ms[i]);
    decided[slice] += w.decided_flags[i];
  }
  f.min_samples = w.latency_ms.size();
  f.detail = "slices (rps/p99 ms):";
  for (size_t k = 0; k < latency.size(); ++k) {
    decided[k] /= slice_s;
    f.min_samples = std::min(f.min_samples, latency[k].size());
    char cell[48];
    std::snprintf(cell, sizeof(cell), " %.0f/%.3g", decided[k],
                  Percentile(&latency[k], 0.99));
    f.detail += cell;
  }
  f.throughput = Percentile(&decided, 0.5);
  std::vector<double> all = w.latency_ms;
  f.p50 = Percentile(&all, 0.50);
  f.p99 = Percentile(&all, 0.99);
  f.detail += "\n# latency tail (ms):";
  for (double q : {0.90, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    char cell[48];
    std::snprintf(cell, sizeof(cell), " p%g %.4g", q * 100, Percentile(&all, q));
    f.detail += cell;
  }
  return f;
}

void ReportEndToEnd(const Window& w, double setup_s, Report* report) {
  SliceFigures f = Sliced(w);
  report->Note("latency samples: " + std::to_string(w.latency_ms.size()) + " (p99 has " +
               std::to_string(w.latency_ms.size() / 100) + " beyond it); " +
               std::to_string(f.slices) + " throughput slices of at least " +
               std::to_string(f.min_samples));
  report->Note(f.detail);
  report->Note("failed_share: " +
               std::to_string(w.attempted ? static_cast<double>(w.failed) /
                                                static_cast<double>(w.attempted)
                                          : 0.0) +
               " (" + std::to_string(w.failed) + " of " +
               std::to_string(w.attempted) + " attempts)");
  report->Add("throughput_rps", f.throughput, "1/s");
  report->Add("latency_p50_ms", f.p50, "ms");
  report->Add("latency_p99_ms", f.p99, "ms");
  report->Add("decided_share",
              static_cast<double>(w.decided) / static_cast<double>(w.attempted),
              "fraction");
  report->Add("cpu_ms_per_req", w.cpu_ms / static_cast<double>(w.attempted), "ms");
  report->Add("peak_rss_mb", w.peak_rss_mb, "MiB");
  report->Add("setup_s", setup_s, "s");
}

// The median set-up time of a run, with every repetition noted.
double SetupMedian(const std::vector<double>& setups, Report* report) {
  std::string reps;
  for (double x : setups) {
    reps += ' ';
    reps += std::to_string(x);
  }
  report->Note("setup repetitions (s):" + reps);
  return Median(setups);
}

// Alternating untraced/traced blocks of the same work: totals per side.
struct PairedBlocks {
  double seconds[2] = {0, 0};  // [traced]
  int64_t decided[2] = {0, 0};
  int blocks = 0;
};

void ReportTraceOverhead(const PairedBlocks& paired, Report* report) {
  const double untraced = static_cast<double>(paired.decided[0]) / paired.seconds[0];
  const double traced = static_cast<double>(paired.decided[1]) / paired.seconds[1];
  report->Note("overhead blocks: " + std::to_string(paired.blocks) + " pairs; untraced " +
               std::to_string(untraced) + " rps, traced " + std::to_string(traced) +
               " rps");
  report->Add("trace.overhead_share", 1 - traced / untraced, "fraction");
}

// ----------------------------------------------------- layer ledger

// Counters and inclusive phase totals, from a registry in this process
// or a server's --stats report.
struct Ledger {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> phase_nanos;

  int64_t C(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double PhaseMs(const std::string& name) const {
    auto it = phase_nanos.find(name);
    return it == phase_nanos.end() ? 0 : static_cast<double>(it->second) / 1e6;
  }
  double Ratio(const std::string& useful, const std::string& other) const {
    double total = static_cast<double>(C(useful) + C(other));
    return total > 0 ? static_cast<double>(C(useful)) / total : 0;
  }

  static Ledger FromRegistry(const StatsRegistry& registry) {
    Ledger ledger;
    ledger.counters = registry.Counters();
    for (const auto& [name, stat] : registry.Phases()) {
      ledger.phase_nanos[name] = stat.total_nanos;
    }
    return ledger;
  }
  static bool FromStatsJson(const std::string& text, Ledger* ledger) {
    size_t brace = text.find('{');
    Json json;
    if (brace == std::string::npos || !ParseJson(text.substr(brace), &json)) {
      return false;
    }
    if (const Json* counters = json.Find("counters")) {
      for (const auto& [name, value] : counters->fields) {
        ledger->counters[name] = static_cast<int64_t>(value.number);
      }
    }
    if (const Json* phases = json.Find("phases")) {
      for (const auto& [name, value] : phases->fields) {
        ledger->phase_nanos[name] =
            static_cast<int64_t>(value.NumberField("total_ns"));
      }
    }
    return true;
  }
};

// The work counts and ratios, under the names later claims use.
void ReportWorkCounts(const Ledger& l, Report* report) {
  report->Add("core.encode_ms", l.PhaseMs("check/encode"), "ms");
  report->Add("core.solve_ms", l.PhaseMs("check/solve"), "ms");
  report->Add("core.witness_ms", l.PhaseMs("check/witness"), "ms");
  report->Count("ilp.nodes", l.C("solver/nodes"));
  report->Count("ilp.lp_pivots", l.C("solver/lp_pivots"));
  report->Count("ilp.dual_pivots", l.C("simplex/dual_pivots"));
  report->Count("ilp.simplex_calls", l.C("simplex/calls"));
  report->Count("ilp.simplex_nnz", l.C("simplex/nnz"));
  report->Count("ilp.presolve_vars_fixed", l.C("solver/presolve_vars_fixed"));
  report->Count("ilp.presolve_refutations", l.C("solver/presolve_refutations"));
  report->Count("base.smallrat_promotions", l.C("solver/smallrat_promotions"));
  report->Count("base.bigint_karatsuba_calls", l.C("bigint/karatsuba_calls"));
  report->Count("base.bigint_gcd_iterations", l.C("bigint/gcd_iterations"));
  report->Count("hierarchical.scopes_solved", l.C("hierarchical/scopes_solved"));
  report->Count("bounded.candidates", l.C("bounded/candidates"));
  report->Add("ilp.warm_start_ratio",
              l.Ratio("solver/warm_starts", "solver/warm_start_fallbacks"),
              "fraction");
  report->Add("regex.dfa_hit_ratio", l.Ratio("cache/dfa_hits", "cache/dfa_misses"),
              "fraction");
  report->Add("encoding.cardinality_hit_ratio",
              l.Ratio("cache/cardinality_hits", "cache/cardinality_misses"),
              "fraction");
}

void ReportServeCounters(const Ledger& l, Report* report) {
  report->Add("serve.cache_hit_ratio",
              l.Ratio("serve/cache_hits", "serve/cache_misses"), "fraction");
  report->Count("serve.cache_hits_canonical", l.C("serve/cache_hits_canonical"));
  report->Count("serve.incremental_hits", l.C("serve/incremental_hits"));
  report->Count("serve.cache_inserts", l.C("serve/cache_inserts"));
  report->Count("serve.queue_depth_max", l.C("serve/queue_depth_max"));
  report->Count("serve.shed", l.C("serve/shed"));
  report->Count("serve.queue_expired", l.C("serve/queue_expired"));
}

// Bench-timed calls into each module's public functions for one spec
// text, with the bench's own bookkeeping timed as well, so the parts
// can be summed against the wall time (the ledger).
struct LayerTimes {
  std::vector<double> parse_us, canonical_us, classify_us, check_us, replay_us;
  double parts_us = 0;  // every timed part, bench overhead included
  double wall_us = 0;   // the whole pass
};

struct LayeredCheck {
  std::optional<Specification> spec;
  std::optional<ConsistencyVerdict> verdict;
};

// Runs `fn`, adding its wall time to `sample` (when given) and to the
// ledger's sum of timed parts.
template <typename Fn>
auto Timed(std::vector<double>* sample, LayerTimes* t, Fn&& fn) {
  Clock::time_point a = Clock::now();
  auto result = fn();
  double us = MicrosBetween(a, Clock::now());
  if (sample != nullptr) sample->push_back(us);
  t->parts_us += us;
  return result;
}

LayeredCheck TimeLayers(const std::string& text, const ConsistencyChecker& checker,
                        LayerTimes* t) {
  LayeredCheck out;
  Result<Specification> spec =
      Timed(&t->parse_us, t, [&] { return Specification::ParseCombined(text); });
  if (!spec.ok()) return out;
  Timed(&t->canonical_us, t, [&] { return FingerprintText(CanonicalSpecText(*spec)); });
  Timed(&t->classify_us, t, [&] { return spec->Classify(); });
  Result<ConsistencyVerdict> verdict =
      Timed(&t->check_us, t, [&] { return checker.Check(*spec); });
  if (verdict.ok() && verdict->witness.has_value()) {
    Timed(&t->replay_us, t, [&] {
      return CheckDocument(*verdict->witness, spec->dtd, spec->constraints);
    });
  }
  Timed(nullptr, t, [&] {  // the bench's own bookkeeping
    out.spec = std::move(*spec);
    if (verdict.ok()) out.verdict = std::move(*verdict);
    return 0;
  });
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void ReportLayerTimes(LayerTimes t, Report* report) {
  report->Add("core.parse_us", Mean(t.parse_us), "us");
  report->Add("core.canonical_us", Mean(t.canonical_us), "us");
  report->Add("core.classify_us", Mean(t.classify_us), "us");
  report->Add("core.check_p50_us", Percentile(&t.check_us, 0.50), "us");
  report->Add("core.check_p99_us", Percentile(&t.check_us, 0.99), "us");
  report->Add("checker.replay_us", Mean(t.replay_us), "us");
  double gap = t.wall_us > 0 ? (t.wall_us - t.parts_us) / t.wall_us : 0;
  report->Add("ledger.gap_share", gap, "fraction");
  char line[160];
  std::snprintf(line, sizeof(line),
                "ledger: %.1f ms of %.1f ms wall attributed to timed parts; "
                "gap %.2f%% (tolerance %.0f%%)%s",
                t.parts_us / 1e3, t.wall_us / 1e3, gap * 100,
                kLedgerTolerance * 100,
                std::abs(gap) <= kLedgerTolerance ? "" : " -- LEDGER DOES NOT CLOSE");
  report->Note(line);
}

// Bench-timed ParseServeRequest / FormatVerdictResponse on request
// lines and verdicts of the workload itself (mean per call).
void ReportProtocolTimes(const std::vector<std::string>& lines,
                         const std::vector<ConsistencyOutcome>& outcomes,
                         Report* report) {
  Clock::time_point a = Clock::now();
  size_t parsed = 0;
  for (const std::string& line : lines) parsed += ParseServeRequest(line).ok();
  Clock::time_point b = Clock::now();
  std::string sink;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    sink = FormatVerdictResponse(std::to_string(i), outcomes[i],
                                 "perfbench", "0123456789abcdef0123456789abcdef",
                                 false, "", false);
  }
  Clock::time_point c = Clock::now();
  if (parsed != lines.size()) report->Wrong("ParseServeRequest rejected a workload line");
  report->Add("serve.request_parse_us",
              lines.empty() ? 0 : MicrosBetween(a, b) / static_cast<double>(lines.size()),
              "us");
  report->Add("serve.format_us",
              outcomes.empty() ? 0 : MicrosBetween(b, c) / static_cast<double>(outcomes.size()),
              "us");
}

// A request line around an already JSON-quoted spec text.
std::string RequestLine(const std::string& id, const std::string& quoted_spec) {
  return "{\"id\":\"" + id + "\",\"spec\":" + quoted_spec + "}";
}

std::vector<std::string> QuoteAll(const std::vector<std::string>& texts) {
  std::vector<std::string> quoted;
  quoted.reserve(texts.size());
  for (const std::string& text : texts) quoted.push_back(trace::JsonQuote(text));
  return quoted;
}

// ------------------------------------------------------ serve client

struct Exchange {
  uint32_t text = 0;
  float rtt_us = 0;
  Clock::time_point done;
  int8_t outcome = -1;  // ConsistencyOutcome, or -1 on an error response
  bool cached = false;
  bool id_ok = false;
};

bool Definitive(int8_t outcome) {
  return outcome == static_cast<int8_t>(ConsistencyOutcome::kConsistent) ||
         outcome == static_cast<int8_t>(ConsistencyOutcome::kInconsistent);
}

struct ConnResult {
  std::vector<Exchange> exchanges;
  std::string error;  // transport failure, if any
  Clock::time_point end;
  double client_us = 0;  // building request lines and checking responses
};

// Reads the server's peak RSS once the connections together have
// completed `at` requests, so the figure covers a fixed amount of work
// and does not grow with throughput.
struct RssProbe {
  pid_t pid = 0;
  int64_t at = 0;
  std::atomic<int64_t> done{0};
  double mib = -1;  // written by the one thread that reaches `at`
};

// Reads the fields the gate needs from a response line by position, as
// the server writes them: {"id":<id>,"verdict":<name>,"cached":<bool>,...
// An error response carries no "verdict" and leaves `outcome` at -1.
void ReadResponse(const std::string& reply, const std::string& id, Exchange* ex) {
  static const std::string kVerdict = "\"verdict\":\"";
  static const std::string kCached = "\",\"cached\":true";
  const std::string head = "{\"id\":\"" + id + "\",";
  ex->id_ok = reply.compare(0, head.size(), head) == 0;
  if (!ex->id_ok || reply.compare(head.size(), kVerdict.size(), kVerdict) != 0) {
    return;
  }
  const size_t name = head.size() + kVerdict.size();
  const size_t end = reply.find('"', name);
  if (end == std::string::npos) return;
  if (auto outcome = OutcomeFromName(reply.substr(name, end - name))) {
    ex->outcome = static_cast<int8_t>(*outcome);
  }
  ex->cached = reply.compare(end, kCached.size(), kCached) == 0;
}

// One closed-loop connection: sends ids[begin, begin+count) in order,
// each after the previous response, until the stop time. `quoted`
// holds every spec text JSON-quoted before the window, so a request
// costs the client one concatenation and a positional read of the
// response; that client time is summed into `client_us`.
void DriveConnection(int port, const std::string& tag,
                     const std::vector<uint32_t>& ids, size_t begin, size_t count,
                     Clock::time_point stop, const std::vector<std::string>& quoted,
                     RssProbe* rss, ConnResult* out) {
  PinThread(kBenchCpu);
  Result<ServeClient> client = ServeClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out->error = client.status().ToString();
    out->end = Clock::now();
    return;
  }
  out->exchanges.reserve(std::min(count, ids.size() - std::min(begin, ids.size())));
  std::string id, line;
  for (size_t i = begin; i < ids.size() && i < begin + count; ++i) {
    Clock::time_point built = Clock::now();
    if (built >= stop) break;
    id = tag;
    id += std::to_string(i);
    line = "{\"id\":\"";
    line += id;
    line += "\",\"spec\":";
    line += quoted[ids[i]];
    line += "}\n";
    Clock::time_point sent = Clock::now();
    Status status = client->SendRaw(line);
    Result<std::string> reply =
        status.ok() ? client->ReadLine() : Result<std::string>(status);
    Clock::time_point received = Clock::now();
    if (!reply.ok()) {
      out->error = reply.status().ToString();
      break;
    }
    Exchange ex;
    ex.text = ids[i];
    ex.rtt_us = static_cast<float>(MicrosBetween(sent, received));
    ex.done = received;
    ReadResponse(*reply, id, &ex);
    out->exchanges.push_back(ex);
    if (rss != nullptr && ++rss->done == rss->at) rss->mib = PeakRssMib(rss->pid);
    out->client_us += MicrosBetween(built, sent) + MicrosBetween(received, Clock::now());
  }
  out->end = Clock::now();
}

// Runs every connection's stream in parallel; returns the results.
std::vector<ConnResult> DriveAll(int port, const std::string& phase,
                                 const std::vector<std::vector<uint32_t>>& streams,
                                 size_t begin, size_t count, Clock::time_point stop,
                                 const std::vector<std::string>& quoted,
                                 RssProbe* rss = nullptr) {
  std::vector<ConnResult> results(streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back(DriveConnection, port, phase + std::to_string(c) + "-",
                         std::cref(streams[c]), begin, count, stop,
                         std::cref(quoted), rss, &results[c]);
  }
  for (std::thread& t : threads) t.join();
  return results;
}

// Client round trips split by the response's `cached` field, and the
// client's own time per request outside the round trip.
void ReportRoundTrips(const std::vector<const std::vector<ConnResult>*>& phases,
                      Report* report) {
  std::vector<double> hit_us, miss_ms;
  double client_us = 0;
  for (const std::vector<ConnResult>* phase : phases) {
    for (const ConnResult& r : *phase) {
      client_us += r.client_us;
      for (const Exchange& ex : r.exchanges) {
        if (ex.cached) {
          hit_us.push_back(ex.rtt_us);
        } else {
          miss_ms.push_back(ex.rtt_us / 1e3);
        }
      }
    }
  }
  const double requests = static_cast<double>(hit_us.size() + miss_ms.size());
  report->Add("serve.rtt_hit_p50_us", Percentile(&hit_us, 0.50), "us");
  report->Add("serve.rtt_hit_p99_us", Percentile(&hit_us, 0.99), "us");
  report->Add("serve.rtt_miss_p50_ms", Percentile(&miss_ms, 0.50), "ms");
  report->Add("serve.rtt_miss_p99_ms", Percentile(&miss_ms, 0.99), "ms");
  report->Add("bench.client_us", requests > 0 ? client_us / requests : 0, "us");
}

// Known answers for the service's responses: the library's verdict on
// the same bytes, computed by the bench in process (several threads,
// after the timed window) and gated like check-mix verdicts. Where the
// library cannot decide (an undecidable-class spec), the exhaustive
// search answers when its size gate allows; otherwise there is none.
struct LibraryAnswer {
  int8_t outcome = -1;
  bool known = false;  // `outcome` is a definitive answer
  bool gate_ok = false;
  std::string reason;
};

std::vector<LibraryAnswer> LibraryAnswers(const std::vector<std::string>& texts,
                                          const std::vector<char>& needed) {
  std::vector<LibraryAnswer> answers(texts.size());
  std::atomic<size_t> cursor{0};
  auto work = [&] {
    ConsistencyChecker checker;
    for (size_t i = cursor++; i < texts.size(); i = cursor++) {
      if (!needed[i]) continue;
      Result<Specification> spec = Specification::ParseCombined(texts[i]);
      if (!spec.ok()) {
        answers[i].reason = "library parse failed: " + spec.status().ToString();
        continue;
      }
      Result<ConsistencyVerdict> verdict = checker.Check(*spec);
      if (!verdict.ok()) {
        answers[i].reason = "library check failed: " + verdict.status().ToString();
        continue;
      }
      GateResult gate = Gate(*spec, *verdict, std::nullopt);
      answers[i].outcome = static_cast<int8_t>(verdict->outcome);
      answers[i].gate_ok = !gate.wrong;
      answers[i].reason = gate.reason;
      if (!gate.decided) {
        if (auto exhaustive = ExhaustiveAnswer(*spec)) {
          answers[i].outcome = static_cast<int8_t>(*exhaustive);
        }
      }
      answers[i].known = Definitive(answers[i].outcome);
    }
  };
  unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return answers;
}

// Gates every exchange against the library answer for the same bytes
// and folds it into the window and the report.
// One attempt into the window. `decided`: a definitive verdict that
// passed its gate within the time limit. `failed`: an error, shed,
// timeout or wrong verdict. An UNKNOWN answer on an undecidable-class
// spec that the library cannot decide either is neither.
void Record(double latency_ms, double done_s, bool decided, bool failed,
            Window* window, Report* report) {
  window->latency_ms.push_back(latency_ms);
  window->done_s.push_back(done_s);
  window->decided_flags.push_back(decided);
  ++window->attempted;
  window->decided += decided;
  window->failed += failed;
  report->Attempt(failed);
}

// Gates every exchange against the library answer for the same bytes
// and folds it into the window and the report.
void GateExchanges(const std::vector<ConnResult>& results,
                   const std::vector<LibraryAnswer>& answers, Clock::time_point origin,
                   Window* window, Report* report) {
  int64_t unverified = 0;
  for (const ConnResult& conn : results) {
    if (!conn.error.empty()) report->Wrong("connection failed: " + conn.error);
    for (const Exchange& ex : conn.exchanges) {
      const LibraryAnswer& answer = answers[ex.text];
      const bool error = ex.outcome < 0;  // an error response or a shed
      const bool timeout =
          ex.outcome == static_cast<int8_t>(ConsistencyOutcome::kDeadlineExceeded) ||
          ex.outcome == static_cast<int8_t>(ConsistencyOutcome::kResourceExhausted);
      bool wrong = false;
      if (!ex.id_ok) {
        wrong = true;
        report->Wrong("response id does not echo the request id");
      } else if (!answer.gate_ok) {
        wrong = true;
        report->Wrong("library verdict failed its gate: " + answer.reason);
      } else if (Definitive(ex.outcome) && !answer.known) {
        ++unverified;
      } else if (Definitive(ex.outcome) && ex.outcome != answer.outcome) {
        wrong = true;
        report->Wrong("service answered " +
                      OutcomeName(static_cast<ConsistencyOutcome>(ex.outcome)) +
                      ", the known answer is " +
                      OutcomeName(static_cast<ConsistencyOutcome>(answer.outcome)));
      }
      const double latency_ms = ex.rtt_us / 1e3;
      const bool late = latency_ms > kTimeLimitMs;
      Record(latency_ms, SecondsBetween(origin, ex.done),
             Definitive(ex.outcome) && !wrong && !late,
             wrong || error || timeout || late, window, report);
    }
  }
  if (unverified > 0) {
    report->Note(std::to_string(unverified) +
                 " definitive answers on specs neither the library nor the "
                 "exhaustive search decides (accepted unverified)");
  }
}

// The operator configuration of both serve workloads. The cache is
// sized so that no epoch clear lands inside a run (serve-churn inserts
// a few thousand entries per second).
ServeOptions ServeConfig() {
  ServeOptions options;
  options.jobs = kServeWorkers;
  options.timeout_millis = static_cast<int64_t>(kTimeLimitMs);
  options.cache_entries = 1048576;
  return options;
}

// The same configuration as xmlvc-serve flags. xmlvc-serve attaches its
// StatsRegistry whatever the flags say; `stats` only makes it print the
// registry at exit, for the one server whose report is read.
std::vector<std::string> ServerFlags(bool stats) {
  const ServeOptions options = ServeConfig();
  std::vector<std::string> flags = {
      "--jobs=" + std::to_string(options.jobs),
      "--timeout=" + std::to_string(options.timeout_millis),
      "--cache-entries=" + std::to_string(options.cache_entries)};
  if (stats) flags.push_back("--stats");
  return flags;
}

// ------------------------------------------------------- check-mix

// Tallies of the check-mix gate beyond the window itself.
struct MixTally {
  int64_t inconsistent = 0;  // decided INCONSISTENT
  int64_t proofs = 0;        // confirmed by exhaustive enumeration
  int64_t undecided_notes = 0;
};

// Gates one check-mix verdict; adds it to the window and the report.
void GateCheck(const CheckInput& input, int64_t index, double latency_ms,
               double done_s,
               const Result<Specification>& spec,
               const Result<ConsistencyVerdict>& verdict, Window* window,
               Report* report, MixTally* tally) {
  bool wrong = !verdict.ok();
  bool decided = false;
  if (!verdict.ok()) {
    report->Wrong(input.kind + " #" + std::to_string(index) + ": " +
                  verdict.status().ToString());
  } else {
    GateResult gate = Gate(*spec, *verdict, input.known);
    wrong = gate.wrong;
    if (gate.wrong) {
      report->Wrong(input.kind + " #" + std::to_string(index) + ": " + gate.reason);
    } else if (!gate.decided && tally->undecided_notes++ < 5) {
      report->Note("undecided: " + input.kind + " #" + std::to_string(index) +
                   ": " + gate.reason);
    }
    decided = gate.decided && !gate.wrong;
    if (decided && verdict->outcome == ConsistencyOutcome::kInconsistent) {
      ++tally->inconsistent;
    }
    tally->proofs += gate.exhaustive_proof;
  }
  const bool late = latency_ms > kTimeLimitMs;
  Record(latency_ms, done_s, decided && !late, wrong || (decided && late), window,
         report);
}

uint64_t DigestTexts(const std::vector<std::string>& texts) {
  uint64_t digest = Fnv1a("");
  for (const std::string& text : texts) digest = Fnv1a(text + '\0', digest);
  return digest;
}

// The check-mix closed loop: one caller, one ConsistencyChecker with
// default options (witness on, serial solver), inputs first, first+1,
// ... Each input is generated just before its turn and each verdict is
// gated right after it, both with the window clock paused, so the
// window holds only the library calls (ParseCombined + Check) and the
// loop itself. Stops after `budget_s` of window time or `count`
// inputs, whichever comes first. With `times`, every layer is timed
// from outside instead; with `registry`, the loop runs under a
// TraceSession on it.
void CheckLoop(uint64_t seed, int64_t first, int64_t count, double budget_s,
               const std::vector<PaperExample>& examples, Window* window,
               Report* report, MixTally* tally, LayerTimes* times = nullptr,
               StatsRegistry* registry = nullptr) {
  std::optional<TraceSession> session;
  if (registry != nullptr) session.emplace(registry);
  ConsistencyChecker checker;
  double active_us = 0, paused_cpu_ms = 0;
  const double cpu0 = SelfCpuMillis();
  for (int64_t i = first; i < first + count && active_us < budget_s * 1e6; ++i) {
    double c0 = SelfCpuMillis();
    CheckInput input = CheckMixInput(seed, i, examples);
    paused_cpu_ms += SelfCpuMillis() - c0;

    Clock::time_point a = Clock::now();
    Result<Specification> spec = Status::Internal("unset");
    Result<ConsistencyVerdict> verdict = Status::Internal("unset");
    if (times != nullptr) {
      LayeredCheck layered = TimeLayers(input.text, checker, times);
      if (layered.spec) spec = std::move(*layered.spec);
      if (layered.verdict) verdict = std::move(*layered.verdict);
      else verdict = Status::Internal("parse or check failed");
    } else {
      spec = Specification::ParseCombined(input.text);
      verdict = spec.ok() ? checker.Check(*spec)
                          : Result<ConsistencyVerdict>(spec.status());
    }
    Clock::time_point b = Clock::now();
    active_us += MicrosBetween(a, b);

    c0 = SelfCpuMillis();
    GateCheck(input, i, MicrosBetween(a, b) / 1e3, active_us / 1e6, spec, verdict,
              window, report, tally);
    paused_cpu_ms += SelfCpuMillis() - c0;
  }
  window->seconds = active_us / 1e6;
  window->cpu_ms = SelfCpuMillis() - cpu0 - paused_cpu_ms;
  if (times != nullptr) times->wall_us = active_us;
}

int RunCheckMix(const Flags& flags, Report* report) {
  PinThread(kBenchCpu);
  std::vector<PaperExample> examples;
  std::string error = LoadPaperExamples(flags.inputs_dir, &examples);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // The traced deck: fixed work, so exact counts repeat for a seed.
  const int64_t deck = flags.small ? 2 * kRoundSize
                                   : std::max<int64_t>(kRoundSize,
                                         static_cast<int64_t>(flags.seconds * 150) /
                                             kRoundSize * kRoundSize);
  {
    std::vector<std::string> texts;
    for (int64_t i = 0; i < deck; ++i) {
      texts.push_back(CheckMixInput(flags.seed, i, examples).text);
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, DigestTexts(texts));
    report->Note(std::string("inputs_digest ") + digest + " (first " +
                 std::to_string(deck) + " inputs)");
  }

  // Set-up: a fresh checker over the three paper examples and 100
  // generated specs, repeated; the median is reported. The set-up specs
  // are the same for every seed, so the figure measures the system and
  // not the draw.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    std::vector<CheckInput> warm;
    for (const PaperExample& example : examples) {
      warm.push_back({example.text, "example/" + example.name, example.published});
    }
    for (int i = 0; i < (flags.small ? 10 : 100); ++i) {
      warm.push_back({GeneratedText(kSetupSeed, rep, i), "gen", std::nullopt});
    }
    Clock::time_point a = Clock::now();
    ConsistencyChecker checker;
    std::vector<std::pair<Result<Specification>, Result<ConsistencyVerdict>>> done;
    for (const CheckInput& input : warm) {
      Result<Specification> spec = Specification::ParseCombined(input.text);
      Result<ConsistencyVerdict> verdict =
          spec.ok() ? checker.Check(*spec) : Result<ConsistencyVerdict>(spec.status());
      done.emplace_back(std::move(spec), std::move(verdict));
    }
    setups.push_back(SecondsBetween(a, Clock::now()));
    Window ignored;
    Report unused;
    MixTally tally;
    for (size_t i = 0; i < warm.size(); ++i) {
      GateCheck(warm[i], static_cast<int64_t>(i), 0, 0, done[i].first, done[i].second,
                &ignored, &unused, &tally);
    }
    if (!unused.correct()) report->Wrong("a set-up verdict failed its gate");
  }
  const double setup_s = SetupMedian(setups, report);

  MixTally tally;
  if (!flags.trace) {
    ResetPeakRss();
    Window w;
    CheckLoop(flags.seed, 0, INT64_MAX / 2, flags.seconds, examples, &w, report, &tally);
    w.peak_rss_mb = PeakRssMib(0);
    report->Note("INCONSISTENT share: " +
                 std::to_string(static_cast<double>(tally.inconsistent) /
                                static_cast<double>(w.attempted)) +
                 "; exhaustive refutations: " + std::to_string(tally.proofs));
    ReportEndToEnd(w, setup_s, report);
    return 0;
  }

  // Traced: passes over the same deck. The library keeps process-wide
  // caches (DFAs, cardinality plans), so only the first pass meets them
  // cold. That pass runs under a TraceSession and gives the exact
  // counts and cache ratios. The second times every layer from outside.
  // The third makes the same calls as the first (ParseCombined + Check)
  // in alternating untraced and traced blocks, for trace.overhead_share.
  StatsRegistry registry;
  {
    Window pass;
    CheckLoop(flags.seed, 0, deck, 1e9, examples, &pass, report, &tally, nullptr,
              &registry);
  }
  Window layered;
  LayerTimes times;
  CheckLoop(flags.seed, 0, deck, 1e9, examples, &layered, report, &tally, &times);
  PairedBlocks paired;
  for (int64_t first = 0; first < deck; first += kMixOverheadBlock, ++paired.blocks) {
    for (int side = 0; side < 2; ++side) {
      const bool traced = (paired.blocks + side) % 2 == 1;
      Window pass;
      StatsRegistry unused;
      CheckLoop(flags.seed, first, kMixOverheadBlock, 1e9, examples, &pass, report,
                &tally, nullptr, traced ? &unused : nullptr);
      paired.seconds[traced] += pass.seconds;
      paired.decided[traced] += pass.decided;
    }
  }
  ReportLayerTimes(times, report);
  ReportWorkCounts(Ledger::FromRegistry(registry), report);

  // Protocol layer on this deck's specs, and a short replay of its
  // first two rounds through xmlvc-serve, each spec sent twice (a cold
  // miss, then a cache hit), for the round trips.
  std::vector<std::string> texts, lines;
  std::vector<ConsistencyOutcome> outcomes;
  for (int64_t i = 0; i < deck; ++i) {
    CheckInput input = CheckMixInput(flags.seed, i, examples);
    lines.push_back(RequestLine("m" + std::to_string(i), trace::JsonQuote(input.text)));
    if (input.known) outcomes.push_back(*input.known);
    texts.push_back(std::move(input.text));
  }
  ReportProtocolTimes(lines, outcomes, report);

  ServerProcess server;
  error = server.Start(flags.serve_binary, ServerFlags(/*stats=*/true), kBenchCpu);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const uint32_t probe = static_cast<uint32_t>(std::min<int64_t>(deck, 2 * kRoundSize));
  std::vector<uint32_t> ids;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t i = 0; i < probe; ++i) ids.push_back(i);
  }
  std::vector<ConnResult> probe_results = DriveAll(
      server.port(), "m", {ids}, 0, ids.size(), Clock::time_point::max(), QuoteAll(texts));
  Ledger server_ledger;
  if (!Ledger::FromStatsJson(server.Stop(), &server_ledger)) {
    report->Wrong("could not parse the server's --stats report");
  }
  std::vector<char> needed(texts.size(), 0);
  for (uint32_t i = 0; i < probe; ++i) needed[i] = 1;
  std::vector<LibraryAnswer> answers = LibraryAnswers(texts, needed);
  Window probe_window;
  GateExchanges(probe_results, answers, Clock::now(), &probe_window, report);
  ReportRoundTrips({&probe_results}, report);
  ReportServeCounters(server_ledger, report);
  ReportTraceOverhead(paired, report);
  return 0;
}

// ------------------------------------------------------ serve workloads

// The warm set split over the connections. Specs that share a DTD go
// to the same connection, in pool order, so which of them the server
// solves cold and which it confirms incrementally does not depend on
// how the connections interleave.
std::vector<std::vector<uint32_t>> WarmShares(const ServeStream& stream) {
  std::vector<std::vector<uint32_t>> shares(stream.per_conn.size());
  for (uint32_t id : stream.warm) {
    const std::string& text = stream.texts[id];
    uint64_t dtd = Fnv1a(text.substr(0, text.find("\n%%\n")));
    shares[dtd % shares.size()].push_back(id);
  }
  return shares;
}

// Server start plus the warm-up pass (each connection sends its share
// of the warm set once). Returns the set-up time; `server` is left
// running.
double ServeSetup(const Flags& flags, const ServeStream& stream,
                  const std::vector<std::string>& quoted, ServerProcess* server,
                  std::vector<ConnResult>* warm_results, std::string* error) {
  const std::vector<std::vector<uint32_t>> shares = WarmShares(stream);
  Clock::time_point a = Clock::now();
  *error = server->Start(flags.serve_binary, ServerFlags(/*stats=*/false), kBenchCpu);
  if (!error->empty()) return 0;
  *warm_results = DriveAll(server->port(), "w", shares, 0, stream.warm.size(),
                           Clock::time_point::max(), quoted);
  return SecondsBetween(a, Clock::now());
}

// Starts a ServeServer (the server xmlvc-serve runs) in this process,
// from a thread pinned to the bench CPU, so that its threads inherit
// that CPU. Only here can it run with no registry at all: xmlvc-serve
// always attaches one.
Status StartPinned(ServeServer* server) {
  Status started;
  std::thread([&] {
    PinThread(kBenchCpu);
    started = server->Start();
  }).join();
  return started;
}

// Library answers for every text a set of exchanges sent.
void MarkSent(const std::vector<ConnResult>& results, std::vector<char>* needed) {
  for (const ConnResult& r : results) {
    for (const Exchange& ex : r.exchanges) (*needed)[ex.text] = 1;
  }
}

// Gates exchanges whose figures are not reported (warm-ups, the
// untraced phases): only their correctness counts.
void GateQuietly(const std::vector<ConnResult>& results,
                 const std::vector<LibraryAnswer>& answers, const char* what,
                 Report* report) {
  Window ignored;
  Report unused;
  GateExchanges(results, answers, Clock::now(), &ignored, &unused);
  if (!unused.correct()) report->Wrong(std::string("a response of ") + what +
                                       " failed its gate");
}

int RunServeWindow(const Flags& flags, bool hot, const ServeStream& stream,
                   const std::vector<std::string>& quoted, Report* report);
int RunServeTraced(const Flags& flags, bool hot, const ServeStream& stream,
                   const std::vector<std::string>& quoted, Report* report);

int RunServe(const Flags& flags, bool hot, Report* report) {
  // Stream lengths leave headroom over the rates of a 4-vCPU VM (about 30k
  // rps on serve-hot's one connection, 6k per serve-churn connection);
  // a stream that runs out ends the window early, with a warning.
  const int64_t per_conn = static_cast<int64_t>(
      flags.seconds * (hot ? 60000 : 12000) * (flags.small ? 0.25 : 1.0)) + 100;
  const int pool = flags.small ? 64 : (hot ? 512 : 256);
  ServeStream stream = hot ? HotStream(flags.seed, pool, kHotConnections, per_conn)
                           : ChurnStream(flags.seed, pool, kChurnConnections, per_conn);
  {
    uint64_t digest = DigestTexts(stream.texts);
    for (const auto& ids : stream.per_conn) {
      std::string bytes(reinterpret_cast<const char*>(ids.data()), ids.size() * 4);
      digest = Fnv1a(bytes, digest);
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    report->Note(std::string("inputs_digest ") + hex + " (" +
                 std::to_string(stream.texts.size()) + " distinct specs; " +
                 std::to_string(stream.per_conn.size()) + "x" +
                 std::to_string(per_conn) + " requests: fresh " +
                 std::to_string(stream.fresh) + ", edits " +
                 std::to_string(stream.edits) + ", reformats " +
                 std::to_string(stream.reformats) + ", repeats " +
                 std::to_string(stream.repeats) + ")");
  }
  const std::vector<std::string> quoted = QuoteAll(stream.texts);
  return flags.trace ? RunServeTraced(flags, hot, stream, quoted, report)
                     : RunServeWindow(flags, hot, stream, quoted, report);
}

// The end-to-end run: set-up repeated (median reported), then one timed
// window on the last set-up's server.
int RunServeWindow(const Flags& flags, bool hot, const ServeStream& stream,
                   const std::vector<std::string>& quoted, Report* report) {
  std::string error;
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::vector<ConnResult>> warmups;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    if (server) server->Stop();
    server = std::make_unique<ServerProcess>();
    std::vector<ConnResult> warm;
    setups.push_back(ServeSetup(flags, stream, quoted, server.get(), &warm, &error));
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    warmups.push_back(std::move(warm));
  }
  const double setup_s = SetupMedian(setups, report);

  Window w;
  double cpu0 = ProcessCpuMillis(server->pid());
  Clock::time_point start = Clock::now();
  Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(flags.seconds));
  RssProbe rss;
  rss.pid = server->pid();
  rss.at = static_cast<int64_t>(flags.seconds * (hot ? 5000 : 2000));
  std::vector<ConnResult> results =
      DriveAll(server->port(), "c", stream.per_conn, 0, SIZE_MAX, stop, quoted, &rss);
  Clock::time_point end = start;
  for (const ConnResult& r : results) end = std::max(end, r.end);
  w.seconds = SecondsBetween(start, end);
  w.cpu_ms = ProcessCpuMillis(server->pid()) - cpu0;
  w.peak_rss_mb = rss.mib > 0 ? rss.mib : PeakRssMib(server->pid());
  if (rss.mib <= 0) report->Note("WARNING: peak RSS read at the window's end");
  double client_us = 0;
  for (const ConnResult& r : results) {
    client_us += r.client_us;
    if (r.exchanges.size() == stream.per_conn[0].size()) {
      report->Note("WARNING: a request stream ran out before the window closed");
    }
  }
  server->Stop();

  // Known answers: the library's verdict on every distinct text sent.
  std::vector<char> needed(stream.texts.size(), 0);
  MarkSent(results, &needed);
  for (const auto& warm : warmups) MarkSent(warm, &needed);
  std::vector<LibraryAnswer> answers = LibraryAnswers(stream.texts, needed);
  for (const auto& warm : warmups) GateQuietly(warm, answers, "a warm-up", report);
  GateExchanges(results, answers, start, &w, report);
  char line[160];
  std::snprintf(line, sizeof(line),
                "client: %.2f us per request building lines and reading responses "
                "(%.1f%% of the window, on the same CPU as the server)",
                client_us / static_cast<double>(std::max<int64_t>(w.attempted, 1)),
                100 * client_us / 1e6 / w.seconds);
  report->Note(line);
  ReportEndToEnd(w, setup_s, report);
  return 0;
}

// The traced run, all on fixed work: the first `count` requests of
// every stream. The library keeps process-wide caches (DFAs,
// cardinality plans), so the passes that need them cold come first:
//  1. the exact counts: ParseCombined + Check under a TraceSession,
//     serially, on the first 2000 distinct texts the streams send. They
//     come from this pass and not from a server, because serve-churn's
//     two connections share the server's per-DTD history, so a
//     server's counts depend on how the connections interleave;
//  2. the same texts with every layer timed from outside, untraced;
//  3. an unmeasured hosted server that warms the caches for every text;
//  4. two hosted servers, one with a registry and one without, each
//     warmed up, then sent the same requests in alternating blocks for
//     trace.overhead_share. The traced one supplies the round trips,
//     the server counters and the protocol layer's lines.
int RunServeTraced(const Flags& flags, bool hot, const ServeStream& stream,
                   const std::vector<std::string>& quoted, Report* report) {
  const size_t count = static_cast<size_t>(
      flags.seconds * (hot ? 8000 : 2500) * (flags.small ? 0.25 : 1.0));
  std::vector<char> sampled(stream.texts.size(), 0);
  std::vector<std::string> sample;
  for (const std::vector<uint32_t>& ids : stream.per_conn) {
    for (size_t i = 0; i < ids.size() && i < count && sample.size() < 2000; ++i) {
      if (!sampled[ids[i]]) {
        sampled[ids[i]] = 1;
        sample.push_back(stream.texts[ids[i]]);
      }
    }
  }
  StatsRegistry counts;
  LayerTimes times;
  {
    ConsistencyChecker checker;
    {
      TraceSession session(&counts);
      for (const std::string& text : sample) {
        Result<Specification> spec = Specification::ParseCombined(text);
        if (spec.ok()) (void)checker.Check(*spec);
      }
    }
    Clock::time_point a = Clock::now();
    for (const std::string& text : sample) TimeLayers(text, checker, &times);
    times.wall_us = MicrosBetween(a, Clock::now());
  }

  const std::vector<std::vector<uint32_t>> shares = WarmShares(stream);
  auto warm_up = [&](ServeServer* server, std::vector<ConnResult>* warm) {
    Status started = StartPinned(server);
    if (!started.ok()) return started;
    *warm = DriveAll(server->port(), "w", shares, 0, stream.warm.size(),
                     Clock::time_point::max(), quoted);
    return Status();
  };
  std::vector<ConnResult> warm[3], sent[3];  // the cache warmer, untraced, traced
  {
    ServeServer warmer(ServeConfig());
    Status started = warm_up(&warmer, &warm[0]);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 2;
    }
    sent[0] = DriveAll(warmer.port(), "c", stream.per_conn, 0, count,
                       Clock::time_point::max(), quoted);
  }
  StatsRegistry registry;
  ServeOptions traced_options = ServeConfig();
  traced_options.stats = &registry;
  ServeServer untraced_server(ServeConfig()), traced_server(traced_options);
  ServeServer* servers[2] = {&untraced_server, &traced_server};
  for (int side = 0; side < 2; ++side) {
    Status started = warm_up(servers[side], &warm[1 + side]);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return 2;
    }
  }
  PairedBlocks paired;
  for (size_t first = 0; first < count; first += kServeOverheadBlock, ++paired.blocks) {
    const size_t block = std::min(kServeOverheadBlock, count - first);
    for (int side = 0; side < 2; ++side) {
      const int traced = (paired.blocks + side) % 2;
      Clock::time_point start = Clock::now();
      std::vector<ConnResult> results =
          DriveAll(servers[traced]->port(), traced ? "t" : "u", stream.per_conn, first,
                   block, Clock::time_point::max(), quoted);
      Clock::time_point end = start;
      for (ConnResult& r : results) {
        end = std::max(end, r.end);
        sent[1 + traced].push_back(std::move(r));
      }
      paired.seconds[traced] += SecondsBetween(start, end);
    }
  }
  untraced_server.Shutdown();
  traced_server.Shutdown();
  const Ledger server_ledger = Ledger::FromRegistry(registry);

  // Known answers for every response; every response is gated.
  std::vector<char> needed(stream.texts.size(), 0);
  for (int k = 0; k < 3; ++k) {
    MarkSent(warm[k], &needed);
    MarkSent(sent[k], &needed);
  }
  std::vector<LibraryAnswer> answers = LibraryAnswers(stream.texts, needed);
  for (int k = 0; k < 3; ++k) {
    GateQuietly(warm[k], answers, "a warm-up", report);
    Window window;
    GateExchanges(sent[k], answers, Clock::now(), &window, report);
    if (k > 0) paired.decided[k - 1] = window.decided;
  }
  const std::vector<ConnResult>& traced = sent[2];

  // The protocol layer on the traced phase's own request lines and
  // verdicts.
  std::vector<std::string> lines;
  std::vector<ConsistencyOutcome> outcomes;
  for (const ConnResult& r : traced) {
    for (const Exchange& ex : r.exchanges) {
      if (lines.size() < 20000) {
        lines.push_back(RequestLine("t" + std::to_string(lines.size()), quoted[ex.text]));
      }
      if (answers[ex.text].outcome >= 0) {
        outcomes.push_back(static_cast<ConsistencyOutcome>(answers[ex.text].outcome));
      }
    }
  }
  ReportLayerTimes(times, report);
  ReportWorkCounts(Ledger::FromRegistry(counts), report);
  report->Note("server's own counts over the traced phase (warm-up included): "
               "solver/nodes " + std::to_string(server_ledger.C("solver/nodes")) +
               ", simplex/calls " + std::to_string(server_ledger.C("simplex/calls")) +
               ", serve/cache_misses " +
               std::to_string(server_ledger.C("serve/cache_misses")));
  ReportProtocolTimes(lines, outcomes, report);
  // Round trips over the traced server's whole life: its warm-up (cold
  // misses) and the traced work.
  ReportRoundTrips({&warm[2], &traced}, report);
  ReportServeCounters(server_ledger, report);
  ReportTraceOverhead(paired, report);
  return 0;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> std::optional<std::string> {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("workload")) flags->workload = *v;
    else if (auto v = value("seed")) flags->seed = std::strtoull(v->c_str(), nullptr, 10);
    else if (auto v = value("seconds")) flags->seconds = std::atof(v->c_str());
    else if (auto v = value("trace")) flags->trace = *v == "1";
    else if (auto v = value("serve-binary")) flags->serve_binary = *v;
    else if (auto v = value("inputs")) flags->inputs_dir = *v;
    else if (arg == "--small") flags->small = true;
    else return false;
  }
  return !flags->workload.empty() && flags->seconds > 0 &&
         !flags->serve_binary.empty() && !flags->inputs_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=check-mix|serve-hot|serve-churn "
                 "--seed=N --seconds=S --trace=0|1 --serve-binary=PATH "
                 "--inputs=DIR [--small]\n");
    return 2;
  }
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("build {\"build_type\": \"%s\", \"optimized\": %s, "
              "\"fault_injection\": %s}\n",
              PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
              PERFBENCH_FAULT_INJECTION ? "true" : "false");
  if (!optimized) {
    std::fprintf(stderr, "error: refusing to report from an unoptimized build "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  Report report;
  report.Note("bench cpu: " + std::to_string(kBenchCpu));
  int code = 2;
  if (flags.workload == "check-mix") {
    code = RunCheckMix(flags, &report);
  } else if (flags.workload == "serve-hot" || flags.workload == "serve-churn") {
    code = RunServe(flags, flags.workload == "serve-hot", &report);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", flags.workload.c_str());
  }
  if (code != 0) return code;
  std::fflush(stdout);
  report.Print();
  return report.correct() ? 0 : 1;
}
