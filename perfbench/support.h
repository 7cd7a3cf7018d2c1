// Small helpers for the perfbench binary: timing, percentiles, a
// minimal JSON reader for the service's --stats report, /proc readers for CPU time and peak RSS, and the child
// process that runs the real xmlvc-serve binary.
#ifndef XMLVERIFY_PERFBENCH_SUPPORT_H_
#define XMLVERIFY_PERFBENCH_SUPPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0,1]) of `values`; sorts in place.
/// 0 for an empty sample.
double Percentile(std::vector<double>* values, double q);
/// Median of a small sample (copies).
double Median(std::vector<double> values);

/// 64-bit FNV-1a, chained: the input digest of the determinism check.
uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 1469598103934665603ULL);

/// A parsed JSON value: just enough for the nested
/// {"phases": {...}, "counters": {...}} stats report (no arrays).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::map<std::string, Json> fields;

  const Json* Find(const std::string& key) const;
  /// Field as a number; fallback when absent or mistyped.
  double NumberField(const std::string& key, double fallback = 0) const;
};

/// Parses one JSON document; false on malformed input or an array.
bool ParseJson(const std::string& text, Json* out);

/// Process CPU time (user + system) in milliseconds: of this process,
/// or of `pid` read from /proc/<pid>/stat. -1 when unreadable.
double SelfCpuMillis();
double ProcessCpuMillis(pid_t pid);
/// Peak resident set (VmHWM) in MiB of `pid` (0: this process); -1
/// when unreadable.
double PeakRssMib(pid_t pid);
/// Resets this process's VmHWM to its current RSS so the peak covers
/// only what follows. False where the kernel does not support it.
bool ResetPeakRss();

/// The CPU every measured thread is pinned to: of the CPUs this
/// process may run on, the highest one, unless another was clearly less
/// busy (steal included) over a 300 ms sample taken at start.
int BenchCpu();
/// Pins the calling thread to `cpu`; false when the kernel refuses.
bool PinThread(int cpu);

/// The real xmlvc-serve binary as a child process. Start() forks,
/// execs with the given flags, and waits for its LISTENING line; the
/// destructor kills and reaps a child that was not stopped.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Empty string on success, else the reason. The server runs pinned
  /// to `cpu`.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& flags, int cpu);
  /// SIGTERM, drain stdout to EOF, reap. Returns everything the server
  /// printed after its LISTENING line (the --stats report).
  std::string Stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::string pending_;  // bytes read past the LISTENING line
};

}  // namespace perfbench

#endif  // XMLVERIFY_PERFBENCH_SUPPORT_H_
