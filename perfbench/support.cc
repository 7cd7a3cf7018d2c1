#include "support.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(q * values->size()));
  if (rank == 0) rank = 1;
  return (*values)[std::min(rank, values->size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// ---------------------------------------------------------------- JSON

const Json* Json::Find(const std::string& key) const {
  auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

double Json::NumberField(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool Document(Json* out) {
    if (!Value(out, 0)) return false;
    Space();
    return pos_ == s_.size();
  }

 private:
  void Space() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }
  bool Hex4(unsigned* code) {
    if (pos_ + 4 > s_.size()) return false;
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = s_[pos_++];
      *code <<= 4;
      if (c >= '0' && c <= '9') *code |= c - '0';
      else if (c >= 'a' && c <= 'f') *code |= c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') *code |= c - 'A' + 10;
      else return false;
    }
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!Hex4(&code)) return false;
          if (code >= 0xD800 && code < 0xDC00 && s_.compare(pos_, 2, "\\u") == 0) {
            pos_ += 2;
            unsigned low = 0;
            if (!Hex4(&low)) return false;
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(code, out);
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) return false;
    Space();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      out->kind = Json::Kind::kObject;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        Space();
        std::string key;
        if (!String(&key)) return false;
        Space();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&out->fields[key], depth + 1)) return false;
        Space();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->text);
    }
    if (Literal("true")) { out->kind = Json::Kind::kBool; out->boolean = true; return true; }
    if (Literal("false")) { out->kind = Json::Kind::kBool; return true; }
    if (Literal("null")) return true;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = Json::Kind::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, Json* out) {
  *out = Json();
  return JsonReader(text).Document(out);
}

// --------------------------------------------------------------- /proc

double SelfCpuMillis() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ProcessCpuMillis(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return -1;
  return (utime + stime) * 1000.0 / static_cast<double>(ticks);
}

double PeakRssMib(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// Busy jiffies (everything but idle and iowait, steal included) of
// every CPU in /proc/stat, by CPU number.
std::vector<long long> BusyJiffies() {
  std::vector<long long> busy;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || !std::isdigit(line[3])) continue;
    std::istringstream fields(line.substr(3));
    size_t cpu = 0;
    fields >> cpu;
    long long total = 0, value = 0, idle = 0;
    for (int k = 0; k < 8 && fields >> value; ++k) {  // user .. steal
      total += value;
      if (k == 3 || k == 4) idle += value;  // idle, iowait
    }
    if (busy.size() <= cpu) busy.resize(cpu + 1, -1);
    busy[cpu] = total - idle;
  }
  return busy;
}

}  // namespace

int BenchCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  std::vector<long long> before = BusyJiffies();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::vector<long long> after = BusyJiffies();
  // The highest allowed CPU unless another allowed CPU was busy for at
  // least 3 jiffies (30 ms at the usual 100 Hz) less during the sample.
  int best = -1;
  long long best_busy = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    long long busy = 0;
    if (static_cast<size_t>(cpu) < after.size() && static_cast<size_t>(cpu) < before.size() &&
        before[cpu] >= 0) {
      busy = after[cpu] - before[cpu];
    }
    if (best < 0 || busy + 3 <= best_busy) {
      best = cpu;
      best_busy = busy;
    }
  }
  return best < 0 ? 0 : best;
}

bool PinThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// ------------------------------------------------------ ServerProcess

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& flags, int cpu) {
  int fds[2];
  if (pipe(fds) != 0) return "pipe failed";
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return "fork failed";
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& flag : flags) {
      argv.push_back(const_cast<char*>(flag.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Wait (bounded) for "LISTENING 127.0.0.1 <port>\n".
  std::string buffer;
  Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (buffer.find('\n') == std::string::npos) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(give_up - Clock::now())
            .count());
    if (left <= 0) return "server did not print LISTENING within 20s";
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, left) <= 0) continue;
    char chunk[512];
    ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return "server exited before listening";
    buffer.append(chunk, static_cast<size_t>(n));
  }
  size_t newline = buffer.find('\n');
  std::string first = buffer.substr(0, newline);
  pending_ = buffer.substr(newline + 1);
  int port = 0;
  if (std::sscanf(first.c_str(), "LISTENING 127.0.0.1 %d", &port) != 1 ||
      port <= 0) {
    return "unexpected first line from server: " + first;
  }
  port_ = port;
  return "";
}

std::string ServerProcess::Stop() {
  std::string out = std::move(pending_);
  pending_.clear();
  if (pid_ <= 0) return out;
  kill(pid_, SIGTERM);
  char chunk[4096];
  while (true) {
    ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  return out;
}

}  // namespace perfbench
