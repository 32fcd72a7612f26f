// perfbench_runner: the compiled half of the end-to-end benchmark. run.py
// generates the inputs, drives the modes below, checks every output
// against its own reference computations and turns the JSON each mode
// writes into metrics (see README.md).
//
//   perfbench_runner host --out FILE
//       Build metadata: SIMD ISA compiled in, compiler, build type.
//   perfbench_runner cli --out FILE --job-dir DIR --seconds S --warmup K
//                        --calibrate PROBE -- CLI ARG...
//       Closed loop with one client: spawn the CLI, wait for it, repeat
//       until S seconds have passed (K untimed warm-up jobs first). Per
//       job: wall time, child CPU time and child peak RSS (wait4), exit
//       status, and an FNV-1a hash of stdout (read through a pipe). The
//       first stdout seen with each distinct hash is kept in DIR for
//       run.py to check. Jobs rotate over the CPUs, and PROBE
//       (perfbench_calibrate) takes a host-speed sample on the job's CPU
//       right before and right after it (see HostSpeed).
//   perfbench_runner trace --out FILE --output FILE --job-dir DIR
//                          --seconds S --semiring trop|fuzzy
//                          PROGRAM --edb PRED=TSV... -- CLI ARG...
//       Alternates one CLI job (as in cli mode) with one in-process replay
//       of the public calls datalogo_cli makes with --seminaive, in RunAs
//       order. Replays alternate between traced and untraced; traced ones
//       record one span per call plus Engine counter deltas around the
//       engine calls.
//   perfbench_runner churn --out FILE --check-dir DIR --seconds S
//                          --cycle N --setups K --trace 0|1
//                          --calibrate PROBE PROGRAM --edb E=TSV
//                          --batches FILE
//       Warm-engine Engine::Update churn over Trop: K cold set-ups
//       (parse, load, compile, first fixpoint), then one op per
//       (delete batch, insert batch) pair. The batch file is built so the
//       EDB returns to its start every N ops; the run ends on such a
//       boundary, so the final tables are the set-up's tables. Check
//       files (EDB and maintained tables) go to DIR. Set-ups and cycles
//       of ops rotate over the CPUs, each op between host-speed samples,
//       as in cli mode.
//
// Every flag shown is required.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"

extern char** environ;

namespace {

using namespace datalogo;

constexpr int kMaxSteps = 100000;  // datalogo_cli's --max-steps default

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t TimevalNs(const timeval& tv) {
  return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
         static_cast<int64_t>(tv.tv_usec) * 1000;
}

/// This process's peak resident memory since it started this program, in
/// KiB: VmHWM, which exec resets. getrusage's ru_maxrss is not used here
/// because it keeps the peak of the process image before exec, which is
/// the spawning parent's memory when the parent forks or vforks.
int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::string Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------- counters
//
// Engine counters snapshotted around each engine span, in kCounterNames
// order.
constexpr const char* kCounterNames[] = {
    "index_builds",      "index_hits",       "idb_index_builds",
    "idb_index_hits",    "idx_incremental_appends",
    "hash_probes",       "direct_probes",    "edb_index_scan_rows",
    "join_batched_rows", "values_batched",   "group_iterations",
    "rules_skipped"};
constexpr std::size_t kNumCounters = std::size(kCounterNames);
using Counters = std::array<uint64_t, kNumCounters>;

template <typename E>
Counters Snapshot(const E& e) {
  return {e.index_builds(),      e.index_hits(),     e.idb_index_builds(),
          e.idb_index_hits(),    e.idx_incremental_appends(),
          e.hash_probes(),       e.direct_probes(),  e.edb_index_scan_rows(),
          e.join_batched_rows(), e.values_batched(), e.group_iterations(),
          e.rules_skipped()};
}

// --------------------------------------------------------------- tracing

struct Span {
  std::string name;
  int op = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> counts;
};

/// Spans kept in memory for the whole run and written out at the end.
/// A null Tracer* means "untraced": every call below becomes a no-op.
class Tracer {
 public:
  int Begin(const char* name, int op, int parent) {
    spans_.push_back(Span{name, op, parent, NowNs(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NowNs(); }
  void Count(int id, const std::string& key, uint64_t v) {
    spans_[id].counts.emplace_back(key, v);
  }
  void CountDelta(int id, const Counters& before, const Counters& after) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      Count(id, kCounterNames[i], after[i] - before[i]);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

int Begin(Tracer* tr, const char* name, int op, int parent) {
  return tr ? tr->Begin(name, op, parent) : -1;
}
void End(Tracer* tr, int id) {
  if (tr) tr->End(id);
}
void Count(Tracer* tr, int id, const std::string& key, uint64_t v) {
  if (tr) tr->Count(id, key, v);
}

/// A span that ends when the scope does, early returns included.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, const char* name, int op, int parent)
      : tr_(tr), id_(Begin(tr, name, op, parent)) {}
  ~ScopedSpan() { End(tr_, id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tr_;
  int id_;
};

// ------------------------------------------------------------------ JSON

class JsonOut {
 public:
  void Raw(const std::string& s) { s_ += s; }
  void Key(const std::string& k) {
    Sep();
    s_ += "\"" + k + "\": ";
    fresh_ = true;
  }
  void Int(const std::string& k, int64_t v) {
    Key(k);
    s_ += std::to_string(v);
    fresh_ = false;
  }
  void Str(const std::string& k, const std::string& v) {
    Key(k);
    s_ += "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) s_ += c;
    }
    s_ += "\"";
    fresh_ = false;
  }
  void Val(int64_t v) {
    Sep();
    s_ += std::to_string(v);
  }
  void Open(char bracket) {
    Sep();
    s_ += bracket;
    fresh_ = true;
  }
  void Close(char bracket) {
    s_ += bracket;
    fresh_ = false;
  }
  void OpenKey(const std::string& k, char bracket) {
    Key(k);
    s_ += bracket;
    fresh_ = true;
  }
  const std::string& str() const { return s_; }

 private:
  void Sep() {
    if (!fresh_) s_ += ", ";
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void WriteSpans(const Tracer& tr, JsonOut* j) {
  j->OpenKey("spans", '[');
  for (const Span& s : tr.spans()) {
    j->Open('{');
    j->Str("name", s.name);
    j->Int("op", s.op);
    j->Int("parent", s.parent);
    j->Int("start_ns", s.start_ns);
    j->Int("end_ns", s.end_ns);
    j->OpenKey("counts", '{');
    for (const auto& [k, v] : s.counts) j->Int(k, static_cast<int64_t>(v));
    j->Close('}');
    j->Close('}');
  }
  j->Close(']');
}

// ------------------------------------------------------------- arguments

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::pair<std::string, std::string>> edbs;  // pred=path
  std::vector<std::string> positional;
  std::vector<std::string> child;  // after "--"

  /// Every flag is required: run.py is the one place that sets them.
  const std::string& Get(const std::string& k) const {
    auto it = flags.find(k);
    if (it == flags.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  double Seconds() const { return std::stod(Get("seconds")); }
  int Int(const std::string& k) const { return std::stoi(Get(k)); }
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      for (++i; i < argc; ++i) a->child.push_back(argv[i]);
      break;
    }
    if (arg.rfind("--", 0) != 0) {
      a->positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2), value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (key == "edb") {
      const auto peq = value.find('=');
      if (peq == std::string::npos) return false;
      a->edbs.emplace_back(value.substr(0, peq), value.substr(peq + 1));
    } else {
      a->flags[key] = value;
    }
  }
  return true;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench_runner: %s\n", msg.c_str());
  return 1;
}

// ------------------------------------------------------------------ host

int HostMode(const Args& a) {
  JsonOut j;
  j.Open('{');
  j.Str("simd_isa", simd::IsaName());
#if defined(__clang__)
  j.Str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.Str("compiler", std::string("gcc ") + __VERSION__);
#else
  j.Str("compiler", "unknown");
#endif
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(NDEBUG)
  j.Int("ndebug", 1);
#else
  j.Int("ndebug", 0);
#endif
  j.Int("hardware_concurrency", std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
  j.Int("cpu_has_avx2", __builtin_cpu_supports("avx2") ? 1 : 0);
#endif
  j.Close('}');
  return WriteFile(a.Get("out"), j.str() + "\n") ? 0 : Fail("cannot write");
}

// ------------------------------------------------------------- cli jobs

struct Job {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t maxrss_kb = 0;
  int exit_code = -1;
  std::string hash;
};

/// Reads `fd` to EOF into `out` (cleared first; capacity kept).
bool Drain(int fd, std::string* out) {
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      return true;
    } else if (errno != EINTR) {
      return false;
    }
  }
}

/// Runs argv with stdout into `out` through a pipe, so job timings do not
/// include file-system writes, and stderr to `err_path`. The wall time
/// runs from spawn to reaping, reading stdout included.
bool SpawnJob(const std::vector<std::string>& argv, const std::string& err_path,
              std::string* out, Job* job) {
  std::vector<char*> cargv;
  for (const std::string& s : argv) {
    cargv.push_back(const_cast<char*>(s.c_str()));
  }
  cargv.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int64_t t0 = NowNs();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  bool ok = rc == 0 && Drain(fds[0], out);
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return false;
  }
  job->wall_ns = NowNs() - t0;
  job->cpu_ns = TimevalNs(ru.ru_utime) + TimevalNs(ru.ru_stime);
  job->maxrss_kb = ru.ru_maxrss;
  job->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return ok;
}

/// One host-speed sample: the probe's two kernel times and the CPU it ran
/// on.
struct SpeedSample {
  int64_t alu_ns = 0, chase_ns = 0;
  int cpu = 0;
};
using SpeedSamples = std::vector<SpeedSample>;

/// Rotates timed work over the CPUs this process may use and brackets it
/// with host-speed samples on the same CPU.
///
/// The CPUs of a shared host do not run at one speed: memory-bound code
/// in particular runs up to a third slower on some of them, and which ones
/// changes over minutes. Left to the scheduler, the share of ops that land
/// on each CPU varies from run to run and moves the medians. Before(k)
/// pins this process (so also the CLI job it spawns next) and the probe
/// to CPU k mod n and takes a sample; After() takes a second one. The
/// probe (calibrate.cc) is a child process, so its memory stays out of
/// this process's peak, and it never runs inside a timed region.
class HostSpeed {
 public:
  explicit HostSpeed(const std::string& path) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0) return;
    if (pipe2(out, O_CLOEXEC) != 0) {
      close(in[0]);
      close(in[1]);
      return;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
    if (posix_spawn(&pid_, argv[0], &fa, nullptr, argv, environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
    close(in[0]);
    close(out[1]);
    to_ = in[1];
    from_ = fdopen(out[0], "r");
  }
  ~HostSpeed() {
    if (to_ >= 0) close(to_);  // end of input: the probe exits
    if (from_) fclose(from_);
    if (pid_ > 0) {
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Moves to the k-th CPU in turn and appends a sample; false if the
  /// probe is gone or the CPU cannot be set.
  bool Before(int k, SpeedSamples* out) {
    if (cpus_.empty()) return false;
    cpu_ = cpus_[static_cast<std::size_t>(k) % cpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu_, &set);
    if (pid_ <= 0 || sched_setaffinity(0, sizeof set, &set) != 0 ||
        sched_setaffinity(pid_, sizeof set, &set) != 0) {
      return false;
    }
    return Sample(out);
  }
  /// Appends a sample on the CPU of the last Before().
  bool After(SpeedSamples* out) { return Sample(out); }

 private:
  bool Sample(SpeedSamples* out) {
    long long alu = 0, chase = 0;
    if (pid_ <= 0 || !from_ || write(to_, "s", 1) != 1 ||
        std::fscanf(from_, "%lld %lld", &alu, &chase) != 2) {
      return false;
    }
    out->push_back({alu, chase, cpu_});
    return true;
  }

  std::vector<int> cpus_;
  int cpu_ = 0;
  pid_t pid_ = -1;
  int to_ = -1;
  FILE* from_ = nullptr;
};

void WriteSpeed(const char* key, const SpeedSamples& samples, JsonOut* j) {
  j->OpenKey(key, '[');
  for (const SpeedSample& s : samples) {
    j->Open('[');
    j->Val(s.alu_ns);
    j->Val(s.chase_ns);
    j->Val(s.cpu);
    j->Close(']');
  }
  j->Close(']');
}

void WriteJobs(const char* key, const std::vector<Job>& jobs, JsonOut* j) {
  j->OpenKey(key, '[');
  for (const Job& job : jobs) {
    j->Open('{');
    j->Int("wall_ns", job.wall_ns);
    j->Int("cpu_ns", job.cpu_ns);
    j->Int("maxrss_kb", job.maxrss_kb);
    j->Int("exit_code", job.exit_code);
    j->Str("hash", job.hash);
    j->Close('}');
  }
  j->Close(']');
}

/// Runs the CLI command after "--" as one job at a time, keeping in
/// --job-dir the first stdout seen with each distinct hash.
class JobRunner {
 public:
  explicit JobRunner(const Args& a)
      : argv_(a.child), dir_(a.Get("job-dir")), err_(dir_ + "/job.err") {}

  bool Run(Job* job) {
    if (!SpawnJob(argv_, err_, &text_, job)) return false;
    job->hash = Fnv1a(text_);
    if (!kept_.count(job->hash)) {
      const std::string keep = dir_ + "/out-" + job->hash + ".txt";
      if (!WriteFile(keep, text_)) return false;
      kept_[job->hash] = keep;
    }
    return true;
  }

  void WriteOutputs(JsonOut* j) const {
    j->OpenKey("outputs", '{');
    for (const auto& [hash, file] : kept_) j->Str(hash, file);
    j->Close('}');
  }

 private:
  std::vector<std::string> argv_;
  std::string dir_, err_;
  std::string text_;  // the last job's stdout; its capacity is reused
  std::map<std::string, std::string> kept_;  // hash -> file
};

int CliMode(const Args& a) {
  if (a.child.empty()) return Fail("cli: missing '-- CLI ARG...'");
  JobRunner runner(a);
  HostSpeed speed(a.Get("calibrate"));
  SpeedSamples samples;  // two per job, warm-ups first
  int k = 0;
  auto run = [&](Job* job) {
    return speed.Before(k++, &samples) && runner.Run(job) &&
           speed.After(&samples);
  };
  std::vector<Job> warmups(static_cast<std::size_t>(a.Int("warmup")));
  for (Job& job : warmups) {
    if (!run(&job)) return Fail("cannot run " + a.child[0] + " or the probe");
  }
  std::vector<Job> jobs;
  const int64_t budget = static_cast<int64_t>(a.Seconds() * 1e9);
  const int64_t start = NowNs();
  do {
    jobs.emplace_back();
    if (!run(&jobs.back())) {
      return Fail("cannot run " + a.child[0] + " or the probe");
    }
  } while (NowNs() - start < budget);

  JsonOut j;
  j.Open('{');
  WriteJobs("warmups", warmups, &j);
  WriteJobs("ops", jobs, &j);
  WriteSpeed("speed", samples, &j);
  runner.WriteOutputs(&j);
  j.Close('}');
  return WriteFile(a.Get("out"), j.str() + "\n") ? 0 : Fail("cannot write");
}

// ---------------------------------------------------------------- trace

struct OpRecord {
  bool traced = false;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};

/// One program, its EDB and its engine; heap-allocated once, so the
/// Engine's Program/EdbInstance pointers stay valid.
template <NaturallyOrderedSemiring P>
struct Loaded {
  Domain dom;
  std::optional<Program> prog;
  std::unique_ptr<EdbInstance<P>> edb;
  std::unique_ptr<Engine<P>> engine;
};

/// RunAs from examples/datalogo_cli.cc up to the engine: reads PROGRAM and
/// the --edb files, then parses, validates, loads and compiles, one span
/// per library call under `root`. File reads stay outside the layer spans,
/// as they are outside the library in the CLI.
template <NaturallyOrderedSemiring P, typename ParseFn>
std::unique_ptr<Loaded<P>> Load(const Args& a, ParseFn&& parse_value,
                                Tracer* tr, int op, int root) {
  auto l = std::make_unique<Loaded<P>>();
  std::string text;
  if (!ReadFile(a.positional[0], &text)) return nullptr;
  int sp = Begin(tr, "parse", op, root);
  auto prog = ParseProgram(text, &l->dom);
  End(tr, sp);
  if (!prog.ok()) return nullptr;
  l->prog.emplace(std::move(prog).value());
  sp = Begin(tr, "validate", op, root);
  const Status valid = ValidateProgram(*l->prog);
  End(tr, sp);
  if (!valid.ok()) return nullptr;
  l->edb = std::make_unique<EdbInstance<P>>(*l->prog);
  for (const auto& [pred, path] : a.edbs) {
    const int id = l->prog->FindPredicate(pred);
    if (id < 0 || l->prog->predicate(id).kind != PredKind::kEdb) {
      return nullptr;
    }
    std::string tsv;
    if (!ReadFile(path, &tsv)) return nullptr;
    sp = Begin(tr, "load", op, root);
    const Status s = LoadTsv<P>(tsv, &l->dom, &l->edb->pops(id), parse_value);
    End(tr, sp);
    if (!s.ok()) return nullptr;
    Count(tr, sp, "rows", l->edb->pops(id).support_size());
    Count(tr, sp, "constants", l->dom.size());
  }
  sp = Begin(tr, "compile", op, root);
  l->engine = std::make_unique<Engine<P>>(*l->prog, *l->edb);
  End(tr, sp);
  return l;
}

/// SemiNaive under a "fixpoint" span that carries the steps, the work and
/// the engine counter deltas.
template <CompleteDistributiveDioid P>
EvalResult<P> Fixpoint(const Engine<P>& engine, Tracer* tr, int op,
                       int root) {
  const Counters before = tr ? Snapshot(engine) : Counters{};
  const int sp = Begin(tr, "fixpoint", op, root);
  EvalResult<P> r = engine.SemiNaive(kMaxSteps);
  End(tr, sp);
  if (tr) {
    tr->CountDelta(sp, before, Snapshot(engine));
    tr->Count(sp, "steps", static_cast<uint64_t>(r.steps));
    tr->Count(sp, "work", r.work);
  }
  return r;
}

/// One CLI-equivalent op with the flags the benchmark passes (--semiring,
/// --edb, --seminaive), printing into `out` instead of stdout.
template <CompleteDistributiveDioid P, typename ParseFn>
bool CliOp(const Args& a, ParseFn&& parse_value, Tracer* tr, int op,
           std::string* out) {
  const ScopedSpan op_span(tr, "op", op, -1);
  const int root = op_span.id();
  const auto l = Load<P>(a, parse_value, tr, op, root);
  if (!l) return false;
  const EvalResult<P> result = Fixpoint(*l->engine, tr, op, root);
  if (!result.converged) return false;
  out->clear();
  *out += "# converged, stability index " + std::to_string(result.steps) +
          "\n";
  for (int pred : l->prog->IdbPredicates()) {
    const int sp = Begin(tr, "dump", op, root);
    std::string rows = DumpTsv(result.idb.idb(pred), l->dom);
    End(tr, sp);
    Count(tr, sp, "rows", result.idb.idb(pred).support_size());
    Count(tr, sp, "bytes", rows.size());
    *out += "## " + l->prog->predicate(pred).name + "\n" + rows;
  }
  return true;
}

template <CompleteDistributiveDioid P, typename ParseFn>
int TraceLoop(const Args& a, ParseFn&& parse_value) {
  if (a.positional.size() != 1) return Fail("trace: expected one PROGRAM");
  if (a.child.empty()) return Fail("trace: missing '-- CLI ARG...'");
  JobRunner runner(a);
  Tracer tracer;
  std::vector<OpRecord> ops;
  std::vector<Job> jobs(1);  // jobs[0]: untimed warm-up
  std::string first, out;
  int failed = 0;
  if (!runner.Run(&jobs[0])) return Fail("cannot spawn " + a.child[0]);
  const int64_t budget = static_cast<int64_t>(a.Seconds() * 1e9);
  const int64_t start = NowNs();
  // Each in-process op follows one CLI job, so both see the same host
  // conditions; traced and untraced ops alternate, so the difference of
  // their medians is the tracing overhead.
  for (int op = 0; op < 2 || NowNs() - start < budget; ++op) {
    jobs.emplace_back();
    if (!runner.Run(&jobs.back())) return Fail("cannot spawn " + a.child[0]);
    OpRecord rec;
    rec.traced = op % 2 == 0;
    const int64_t t0 = NowNs(), c0 = ThreadCpuNs();
    const bool ok = CliOp<P>(a, parse_value, rec.traced ? &tracer : nullptr,
                             op, &out);
    rec.wall_ns = NowNs() - t0;
    rec.cpu_ns = ThreadCpuNs() - c0;
    if (op == 0) first = out;
    if (!ok || out != first) ++failed;
    ops.push_back(rec);
  }
  if (!WriteFile(a.Get("output"), first)) return Fail("cannot write output");

  JsonOut j;
  j.Open('{');
  j.Int("failed", failed);
  WriteJobs("warmups", {jobs[0]}, &j);
  WriteJobs("jobs", {jobs.begin() + 1, jobs.end()}, &j);
  runner.WriteOutputs(&j);
  j.OpenKey("ops", '[');
  for (const OpRecord& r : ops) {
    j.Open('{');
    j.Int("traced", r.traced);
    j.Int("wall_ns", r.wall_ns);
    j.Int("cpu_ns", r.cpu_ns);
    j.Close('}');
  }
  j.Close(']');
  WriteSpans(tracer, &j);
  j.Close('}');
  return WriteFile(a.Get("out"), j.str() + "\n") ? 0 : Fail("cannot write");
}

int TraceMode(const Args& a) {
  const std::string& s = a.Get("semiring");
  if (s == "trop") return TraceLoop<TropS>(a, ParseDoubleValue);
  if (s == "fuzzy") return TraceLoop<FuzzyS>(a, ParseDoubleValue);
  return Fail("trace: unsupported semiring '" + s + "'");
}

// ---------------------------------------------------------------- churn

using ChurnS = TropS;

/// A warm engine with its maintained tables.
struct Warm {
  std::unique_ptr<Loaded<ChurnS>> in;
  std::unique_ptr<IdbInstance<ChurnS>> idb;  // maintained by Update
  int setup_steps = 0;
  uint64_t setup_work = 0;
  int64_t setup_ns = 0;  // file reads to the maintained copy of the tables
};

std::unique_ptr<Warm> ChurnSetup(const Args& a, Tracer* tr, int op) {
  const int64_t t0 = NowNs();
  auto w = std::make_unique<Warm>();
  const ScopedSpan setup_span(tr, "setup", op, -1);
  w->in = Load<ChurnS>(a, ParseDoubleValue, tr, op, setup_span.id());
  if (!w->in) return nullptr;
  const EvalResult<ChurnS> r =
      Fixpoint(*w->in->engine, tr, op, setup_span.id());
  if (!r.converged) return nullptr;
  w->setup_steps = r.steps;
  w->setup_work = r.work;
  w->idb = std::make_unique<IdbInstance<ChurnS>>(*w->in->prog);
  w->idb->CopyContentsFrom(r.idb);
  w->setup_ns = NowNs() - t0;
  return w;
}

/// The maintained tables as datalogo_cli prints them, minus its first line.
std::string DumpTables(const Warm& w) {
  std::string out;
  for (int pred : w.in->prog->IdbPredicates()) {
    out += "## " + w.in->prog->predicate(pred).name + "\n" +
           DumpTsv(w.idb->idb(pred), w.in->dom);
  }
  return out;
}

/// Batch file: "@ delete" / "@ insert" open a batch; then lines
/// "- PRED key..." and "+ PRED key... value" as in datalogo_cli --update.
bool ParseBatches(const std::string& text, Warm* w,
                  std::vector<EdbDelta<ChurnS>>* out) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::vector<std::string> toks = io_internal::SplitLine(line);
    if (toks.empty() || toks[0][0] == '#') continue;
    if (toks[0] == "@") {
      out->emplace_back();
      continue;
    }
    if (out->empty() || toks.size() < 2) return false;
    const int pred = w->in->prog->FindPredicate(toks[1]);
    if (pred < 0 || w->in->prog->predicate(pred).kind != PredKind::kEdb) {
      return false;
    }
    const int arity = w->in->prog->predicate(pred).arity;
    const bool add = toks[0] == "+";
    if (static_cast<int>(toks.size()) != 2 + arity + (add ? 1 : 0)) {
      return false;
    }
    Tuple t;
    for (int i = 0; i < arity; ++i) {
      ConstId id = 0;
      if (!io_internal::TryInternToken(toks[2 + i], &w->in->dom, &id)) {
        return false;
      }
      t.push_back(id);
    }
    if (add) {
      double v = 0;
      if (!ParseDoubleValue(toks.back(), &v)) return false;
      out->back().Add(pred, std::move(t), v);
    } else if (toks[0] == "-") {
      out->back().Delete(pred, std::move(t));
    } else {
      return false;
    }
  }
  return true;
}

/// Files for one cold-recompute check, which run.py makes after the run
/// with datalogo_cli on `edbs`: the maintained tables at that point must
/// equal the CLI's. Keeping the recompute out of this process keeps it out
/// of the process's peak memory.
struct Check {
  int op = 0;
  std::string tables;
  std::vector<std::pair<std::string, std::string>> edbs;  // pred, file
};

bool WriteCheck(const Warm& w, const std::string& dir, const std::string& tag,
                const std::string& tables, int op, std::vector<Check>* out) {
  Check c{op, dir + "/check-" + tag + ".out", {}};
  if (!WriteFile(c.tables, tables)) return false;
  const Program& prog = *w.in->prog;
  for (int p = 0; p < prog.num_predicates(); ++p) {
    if (prog.predicate(p).kind != PredKind::kEdb) continue;
    const std::string& name = prog.predicate(p).name;
    c.edbs.emplace_back(name, dir + "/check-" + tag + "-" + name + ".tsv");
    if (!WriteFile(c.edbs.back().second,
                   DumpTsv(w.in->edb->pops(p), w.in->dom))) {
      return false;
    }
  }
  out->push_back(std::move(c));
  return true;
}

struct ChurnOp {
  bool traced = false;
  int64_t wall_ns = 0, cpu_ns = 0, delete_ns = 0, insert_ns = 0;
  uint64_t delete_work = 0, insert_work = 0, rounds = 0, rederived = 0;
  int recomputes = 0;
};

int ChurnMode(const Args& a) {
  if (a.positional.size() != 1) return Fail("churn: expected one PROGRAM");
  const bool trace = a.Int("trace") == 1;
  const int cycle = a.Int("cycle");
  const int setups = a.Int("setups");
  const std::string& check_dir = a.Get("check-dir");
  if (cycle < 2 || setups < 1) return Fail("churn: bad --cycle or --setups");
  Tracer tracer;
  Tracer* tr = trace ? &tracer : nullptr;

  HostSpeed speed(a.Get("calibrate"));
  SpeedSamples setup_speed, op_speed;  // two per set-up, two per op
  std::vector<int64_t> setup_ns;
  std::unique_ptr<Warm> w;
  for (int k = 0; k < setups; ++k) {
    w.reset();
    if (!speed.Before(k, &setup_speed)) return Fail("host-speed probe failed");
    w = ChurnSetup(a, tr, -1 - k);
    if (!w) return Fail("churn: set-up failed");
    setup_ns.push_back(w->setup_ns);
    if (!speed.After(&setup_speed)) return Fail("host-speed probe failed");
  }
  // The set-up fixpoint, kept as a hash: the maintained tables must come
  // back to it whenever the EDB does.
  const std::string initial = Fnv1a(DumpTables(*w));
  std::string batch_text;
  std::vector<EdbDelta<ChurnS>> batches;
  if (!ReadFile(a.Get("batches"), &batch_text) ||
      !ParseBatches(batch_text, w.get(), &batches) || batches.size() % 2) {
    return Fail("churn: bad batch file");
  }
  // Every cycle returns the EDB to its start, so once the file's cycles
  // are used up the run replays them from the first.
  const int available = static_cast<int>(batches.size() / 2);
  if (available == 0 || available % cycle != 0) {
    return Fail("churn: batch count is not a whole number of cycles");
  }

  std::vector<ChurnOp> ops;
  std::vector<Check> checks;
  int failed = 0, hash_checks = 0;
  const int64_t budget = static_cast<int64_t>(a.Seconds() * 1e9);
  const int64_t start = NowNs();
  for (int op = 0; op % cycle != 0 || op == 0 || NowNs() - start < budget;
       ++op) {
    ChurnOp rec;
    // Whole cycles alternate traced and untraced: cycles draw i.i.d.
    // batches, so neither half is biased toward forward or undo ops.
    rec.traced = trace && (op / cycle) % 2 == 0;
    Tracer* t = rec.traced ? tr : nullptr;
    // A whole cycle stays on one CPU: moving the warm engine to another
    // CPU before every op would time cache refills along with Update.
    if (!speed.Before(op / cycle, &op_speed)) {
      return Fail("host-speed probe failed");
    }
    const int64_t t0 = NowNs(), c0 = ThreadCpuNs();
    const int root = Begin(t, "op", op, -1);
    UpdateResult ur[2];
    int64_t ns[2];
    for (int half = 0; half < 2; ++half) {
      const Counters before = t ? Snapshot(*w->in->engine) : Counters{};
      const int64_t h0 = NowNs();
      const int sp =
          Begin(t, half == 0 ? "update.delete" : "update.insert", op, root);
      ur[half] = w->in->engine->Update(batches[2 * (op % available) + half],
                                       w->in->edb.get(), w->idb.get(),
                                       kMaxSteps);
      End(t, sp);
      ns[half] = NowNs() - h0;
      if (t) {
        t->CountDelta(sp, before, Snapshot(*w->in->engine));
        t->Count(sp, "work", ur[half].work);
      }
    }
    End(t, root);
    rec.wall_ns = NowNs() - t0;
    rec.cpu_ns = ThreadCpuNs() - c0;
    rec.delete_ns = ns[0];
    rec.insert_ns = ns[1];
    rec.delete_work = ur[0].work;
    rec.insert_work = ur[1].work;
    for (const UpdateResult& u : ur) {
      rec.rounds += static_cast<uint64_t>(u.rounds);
      rec.rederived += u.deleted_rederived;
      rec.recomputes += u.strategy == UpdateStrategy::kRecompute;
      if (!u.converged) ++failed;
    }
    ops.push_back(rec);
    if (!speed.After(&op_speed)) return Fail("host-speed probe failed");
    // Checks run outside the timed region: at each cycle's end the EDB
    // is back at its start, so the maintained tables must equal the
    // set-up fixpoint; at every fourth cycle's midpoint they are written
    // out with the mutated EDB for a cold recompute.
    const int done = op + 1;
    if (done % cycle == 0) {
      ++hash_checks;
      if (Fnv1a(DumpTables(*w)) != initial) ++failed;
    } else if (done % cycle == cycle / 2 && (done / cycle) % 4 == 0 &&
               !WriteCheck(*w, check_dir, std::to_string(done),
                           DumpTables(*w), done, &checks)) {
      return Fail("churn: cannot write check files");
    }
  }

  // The run ends on a cycle boundary: the final EDB is the start EDB.
  const int n = static_cast<int>(ops.size());
  const int sp = Begin(tr, "dump", n, -1);
  const std::string dump = DumpTables(*w);
  End(tr, sp);
  if (tr) {
    uint64_t rows = 0;
    for (int pred : w->in->prog->IdbPredicates()) {
      rows += w->idb->idb(pred).support_size();
    }
    tr->Count(sp, "rows", rows);
    tr->Count(sp, "bytes", dump.size());
  }
  if (!WriteCheck(*w, check_dir, "final", dump, n, &checks)) {
    return Fail("churn: cannot write check files");
  }
  const int64_t peak_rss_kb = PeakRssKb();
  if (peak_rss_kb <= 0) return Fail("churn: cannot read VmHWM");

  JsonOut j;
  j.Open('{');
  j.Int("failed", failed);
  j.Int("hash_checks", hash_checks);
  j.Int("setup_steps", w->setup_steps);
  j.Int("setup_work", static_cast<int64_t>(w->setup_work));
  j.Int("peak_rss_kb", peak_rss_kb);
  j.OpenKey("setup_ns", '[');
  for (int64_t ns : setup_ns) j.Val(ns);
  j.Close(']');
  WriteSpeed("setup_speed", setup_speed, &j);
  WriteSpeed("speed", op_speed, &j);
  j.OpenKey("checks", '[');
  for (const Check& c : checks) {
    j.Open('{');
    j.Int("op", c.op);
    j.Str("tables", c.tables);
    j.OpenKey("edbs", '{');
    for (const auto& [pred, file] : c.edbs) j.Str(pred, file);
    j.Close('}');
    j.Close('}');
  }
  j.Close(']');
  j.OpenKey("ops", '[');
  for (const ChurnOp& r : ops) {
    j.Open('{');
    j.Int("traced", r.traced);
    j.Int("wall_ns", r.wall_ns);
    j.Int("cpu_ns", r.cpu_ns);
    j.Int("delete_ns", r.delete_ns);
    j.Int("insert_ns", r.insert_ns);
    j.Int("delete_work", static_cast<int64_t>(r.delete_work));
    j.Int("insert_work", static_cast<int64_t>(r.insert_work));
    j.Int("rounds", static_cast<int64_t>(r.rounds));
    j.Int("rederived", static_cast<int64_t>(r.rederived));
    j.Int("recomputes", r.recomputes);
    j.Close('}');
  }
  j.Close(']');
  WriteSpans(tracer, &j);
  j.Close('}');
  return WriteFile(a.Get("out"), j.str() + "\n") ? 0 : Fail("cannot write");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2 || !ParseArgs(argc, argv, &a)) {
    return Fail("usage: perfbench_runner host|cli|trace|churn [FLAGS]");
  }
  const std::string mode = argv[1];
  try {
    if (mode == "host") return HostMode(a);
    if (mode == "cli") return CliMode(a);
    if (mode == "trace") return TraceMode(a);
    if (mode == "churn") return ChurnMode(a);
  } catch (const std::exception& e) {  // a missing or malformed flag
    return Fail(std::string("bad flags: ") + e.what());
  }
  return Fail("unknown mode '" + mode + "'");
}
