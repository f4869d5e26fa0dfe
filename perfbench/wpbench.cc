// Whirlpool benchmark driver; run.py in this directory builds and calls it,
// and README.md explains the workloads and metrics.
//
//   wpbench gen --seed N --dir D
//       Generates the seeded XMark document, writes its XML text (D/doc.xml)
//       and snapshot (D/doc.snap), computes reference answer scores for every
//       (query, k) cell with an independent engine (D/refs.txt), and
//       describes the inputs (D/inputs.json).
//   wpbench run --workload W --seed N --dir D --seconds S --trace 0|1
//               --spans FILE [--perturb-reference]
//       Runs one workload as a closed loop with one client over those inputs
//       and prints one JSON object of raw samples (set-up times, per-op
//       latencies and engine counters, memory) as its last stdout line. With
//       --trace 1 it also records a span around every layer call and writes
//       them to FILE when the run ends.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "whirlpool/whirlpool.h"
#include "xmlgen/xmark.h"

namespace {

using namespace whirlpool;  // NOLINT(google-build-using-namespace)

constexpr size_t kTargetBytes = 16'000'000;
constexpr uint32_t kSmallK = 15;
constexpr uint32_t kDeepK = 1000;
// Set-up runs this many times per run; run.py reports the median.
constexpr int kSetupReps = 5;
constexpr double kScoreTolerance = 1e-9;
// Qv constants: quantity 1..5, then incategory category0..category11.
constexpr int kNumQv = 17;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "wpbench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Spans -----------------------------------------------------------------

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index of the enclosing span, -1 for none
  int64_t op;      // op id, -1 outside ops
};

// The benchmark is one client thread, so one global log suffices.
struct SpanLog {
  bool enabled = false;
  int64_t op = -1;
  int64_t open = -1;
  std::vector<SpanRecord> records;
};
SpanLog g_spans;

/// Records a span around a layer call while tracing is enabled.
class Span {
 public:
  explicit Span(const char* name) {
    if (!g_spans.enabled) return;
    index_ = static_cast<int64_t>(g_spans.records.size());
    g_spans.records.push_back({name, 0, 0, g_spans.open, g_spans.op});
    g_spans.open = index_;
    g_spans.records.back().start_ns = NowNs();
  }
  ~Span() {
    if (index_ < 0) return;
    SpanRecord& r = g_spans.records[static_cast<size_t>(index_)];
    r.end_ns = NowNs();
    g_spans.open = r.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

template <typename F>
auto Traced(const char* name, F&& f) {
  Span span(name);
  return f();
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) Die("cannot write " + path);
  out << "[";
  for (size_t i = 0; i < g_spans.records.size(); ++i) {
    const SpanRecord& r = g_spans.records[i];
    out << (i ? ",\n" : "\n") << "[\"" << r.name << "\"," << r.start_ns << "," << r.end_ns
        << "," << r.parent << "," << r.op << "]";
  }
  out << "\n]\n";
}

// ---- Inputs ----------------------------------------------------------------

/// Resident-set figures from /proc/self/status ("VmRSS", "VmHWM"), in MB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1) / 1024.0;
    }
  }
  Die(std::string("no ") + key + " in /proc/self/status");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!(out << text)) Die("cannot write " + path);
}

std::string QvXPath(int v) {
  if (v < 5) {
    return "//item[./quantity='" + std::to_string(v + 1) +
           "' and ./description/parlist and ./mailbox/mail/text]";
  }
  return "//item[./incategory/@category='category" + std::to_string(v - 5) +
         "' and ./mailbox/mail/text/keyword and ./name]";
}

/// Query keys: "Q1".."Q3" are the paper's queries, "Qv0".."Qv16" the
/// value-predicate query with its constants.
std::string XPathFor(const std::string& key) {
  if (key.rfind("Qv", 0) == 0) return QvXPath(std::atoi(key.c_str() + 2));
  return bench::QueryXPath(std::atoi(key.c_str() + 1));
}

std::string RefKey(const std::string& key, uint32_t k) {
  return key + "@" + std::to_string(k);
}

std::vector<std::pair<std::string, uint32_t>> ReferenceCells() {
  std::vector<std::pair<std::string, uint32_t>> cells = {
      {"Q1", kSmallK}, {"Q2", kSmallK}, {"Q3", kSmallK}, {"Q2", kDeepK}, {"Q3", kDeepK}};
  for (int v = 0; v < kNumQv; ++v) cells.emplace_back("Qv" + std::to_string(v), kSmallK);
  return cells;
}

/// A parsed pattern with its plan; heap-held because the plan points at the
/// pattern.
struct CompiledQuery {
  query::TreePattern pattern;
  std::unique_ptr<exec::QueryPlan> plan;
};

/// ParseXPath, then sparse tf*idf, then QueryPlan::Build, one span each.
std::unique_ptr<CompiledQuery> Compile(const index::TagIndex& idx, const std::string& xpath) {
  auto c = std::make_unique<CompiledQuery>();
  c->pattern = Check(Traced("query.xpath_parse", [&] { return query::ParseXPath(xpath); }),
                     "parse " + xpath);
  score::ScoringModel scoring = Traced("score.tfidf", [&] {
    return score::ScoringModel::ComputeTfIdf(idx, c->pattern, score::Normalization::kSparse);
  });
  c->plan = std::make_unique<exec::QueryPlan>(
      Check(Traced("exec.plan_build",
                   [&] { return exec::QueryPlan::Build(idx, c->pattern, std::move(scoring)); }),
            "plan " + xpath));
  return c;
}

// ---- gen -------------------------------------------------------------------

int CmdGen(uint64_t seed, const std::string& dir) {
  xmlgen::XMarkOptions gen;
  gen.seed = seed;
  gen.target_bytes = kTargetBytes;
  std::unique_ptr<xml::Document> doc = xmlgen::GenerateXMark(gen);
  const std::string text = xml::SerializeDocument(*doc);
  WriteFile(dir + "/doc.xml", text);
  const Status saved = xml::SaveSnapshot(*doc, dir + "/doc.snap");
  if (!saved.ok()) Die("snapshot: " + saved.ToString());

  // References come from the rewriting baseline, which shares no search code
  // with the Whirlpool engines; it only takes the plan's scores.
  const index::TagIndex idx(*doc);
  std::ostringstream refs;
  std::ostringstream queries;
  std::map<std::string, bool> listed;
  for (const auto& [key, k] : ReferenceCells()) {
    const std::string xpath = XPathFor(key);
    auto c = Compile(idx, xpath);
    exec::ExecOptions options;
    options.k = k;
    const uint64_t t0 = NowNs();
    exec::TopKResult ref =
        Check(exec::RunRewritingBaseline(*c->plan, options), "reference " + RefKey(key, k));
    std::fprintf(stderr, "reference %s: %zu answers in %.1f ms\n", RefKey(key, k).c_str(),
                 ref.answers.size(), static_cast<double>(NowNs() - t0) / 1e6);
    refs << RefKey(key, k) << " " << query::RootCandidates(idx, c->pattern).size() << " "
         << ref.answers.size();
    for (const exec::Answer& a : ref.answers) refs << " " << Num(a.score);
    refs << "\n";
    if (!listed[key]) {
      listed[key] = true;
      queries << (queries.tellp() > 0 ? ", " : "") << "\"" << key << "\": \""
              << util::JsonEscape(xpath) << "\"";
    }
  }
  WriteFile(dir + "/refs.txt", refs.str());

  const auto items = idx.Nodes("item").size();
  WriteFile(dir + "/inputs.json",
            "{\"seed\": " + std::to_string(seed) +
                ", \"target_bytes\": " + std::to_string(kTargetBytes) +
                ", \"nodes\": " + std::to_string(doc->num_nodes()) +
                ", \"item_roots\": " + std::to_string(items) +
                ", \"text_bytes\": " + std::to_string(text.size()) + ", \"queries\": {" +
                queries.str() + "}}\n");
  return 0;
}

// ---- run -------------------------------------------------------------------

struct Reference {
  uint64_t roots = 0;
  std::vector<double> scores;
};

std::map<std::string, Reference> LoadReferences(const std::string& dir, bool perturb) {
  std::map<std::string, Reference> refs;
  std::istringstream in(ReadFile(dir + "/refs.txt"));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    size_t n = 0;
    Reference r;
    fields >> key >> r.roots >> n;
    r.scores.resize(n);
    for (double& s : r.scores) fields >> s;
    if (!fields) Die("malformed refs.txt line: " + line);
    // The self-check: a reference moved by 1e-6 must fail every op.
    if (perturb && !r.scores.empty()) r.scores.back() += 1e-6;
    refs[key] = std::move(r);
  }
  return refs;
}

const char* EngineName(exec::EngineKind e) {
  switch (e) {
    case exec::EngineKind::kWhirlpoolS: return "ws";
    case exec::EngineKind::kWhirlpoolM: return "wm";
    default: return "lockstep";
  }
}

const char* RunSpanName(exec::EngineKind e) {
  switch (e) {
    case exec::EngineKind::kWhirlpoolS: return "exec.run.ws";
    case exec::EngineKind::kWhirlpoolM: return "exec.run.wm";
    default: return "exec.run.lockstep";
  }
}

struct Op {
  std::string key;  // query key
  exec::EngineKind engine;
  uint32_t k;
};

struct RunArgs {
  std::string workload;
  std::string dir;
  std::string spans;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool perturb = false;
};

class Runner {
 public:
  explicit Runner(RunArgs args)
      : args_(std::move(args)),
        refs_(LoadReferences(args_.dir, args_.perturb)),
        qv_rng_(args_.seed * 0x9E3779B97F4A7C15ull + 1) {}

  int Run();

 private:
  // One set-up of the resident workloads: parse, index, and (engine_deep)
  // the Q2/Q3 plans. Returns its wall time.
  double SetupResident();
  void TeardownResident();
  // TagIndex construction; the first one also measures its VmRSS growth.
  std::unique_ptr<index::TagIndex> BuildIndex(const xml::Document& doc);
  // One cold_start op: load, index, query, label, destroy.
  Result<exec::TopKResult> ColdOp(const Op& op, const std::string& xpath);
  // Runs `op`, times it, verifies it, and (when `record`) keeps its sample.
  void RunOp(const Op& op, int cycle, bool record);
  // Traced run only: calls into the layers the workload's own ops skip, so
  // that the run reports every layer, plus TagIndex without values.
  void Probe();
  std::vector<Op> NextCycle();
  Result<exec::TopKResult> Execute(const exec::QueryPlan& plan, const Op& op);
  std::string Verify(const Result<exec::TopKResult>& r, const Op& op) const;
  // Counts one attempted op, and a failure when Verify finds one.
  void Count(const Result<exec::TopKResult>& r, const Op& op);
  void Emit(double timed_s) const;

  bool IsCold() const { return args_.workload == "cold_start"; }
  bool IsDeep() const { return args_.workload == "engine_deep"; }

  RunArgs args_;
  std::map<std::string, Reference> refs_;
  std::mt19937_64 qv_rng_;
  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<index::TagIndex> idx_;
  std::map<std::string, std::unique_ptr<CompiledQuery>> plans_;
  std::vector<double> setup_s_;
  double index_rss_mb_ = -1;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::ostringstream samples_;
  int64_t next_op_ = 0;
  bool tracing_ops_ = false;
  double probe_queue_wait_us_ = 0;
};

std::vector<Op> Runner::NextCycle() {
  if (IsDeep()) {
    using exec::EngineKind;
    return {{"Q2", EngineKind::kWhirlpoolS, kDeepK},
            {"Q3", EngineKind::kWhirlpoolS, kDeepK},
            {"Q2", EngineKind::kWhirlpoolM, kDeepK},
            {"Q3", EngineKind::kWhirlpoolM, kDeepK},
            {"Q2", EngineKind::kLockStep, kSmallK}};
  }
  const int v = static_cast<int>(qv_rng_() % kNumQv);
  std::vector<Op> ops;
  for (const char* key : {"Q1", "Q2", "Q3"}) {
    ops.push_back({key, exec::EngineKind::kWhirlpoolS, kSmallK});
  }
  ops.push_back({"Qv" + std::to_string(v), exec::EngineKind::kWhirlpoolS, kSmallK});
  return ops;
}

double Runner::SetupResident() {
  const uint64_t t0 = NowNs();
  {
    Span span("setup");
    std::string text = ReadFile(args_.dir + "/doc.xml");
    doc_ = Check(Traced("xml.parse", [&] { return xml::ParseDocument(text); }), "parse");
    text = std::string();
    idx_ = BuildIndex(*doc_);
    if (IsDeep()) {
      for (const char* key : {"Q2", "Q3"}) plans_[key] = Compile(*idx_, XPathFor(key));
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

std::unique_ptr<index::TagIndex> Runner::BuildIndex(const xml::Document& doc) {
  const bool first = index_rss_mb_ < 0;
  // The traced run first hands freed heap pages back, so that pages the index
  // reuses count towards its VmRSS growth as well.
  if (first && args_.trace) malloc_trim(0);
  const double rss0 = first ? ProcStatusMb("VmRSS") : 0;
  auto idx = Traced("index.build", [&] { return std::make_unique<index::TagIndex>(doc); });
  if (first) index_rss_mb_ = ProcStatusMb("VmRSS") - rss0;
  return idx;
}

void Runner::TeardownResident() {
  plans_.clear();
  Traced("index.destroy", [&] { idx_.reset(); });
  Traced("xml.destroy", [&] { doc_.reset(); });
}

Result<exec::TopKResult> Runner::Execute(const exec::QueryPlan& plan, const Op& op) {
  exec::ExecOptions options;
  options.engine = op.engine;
  options.k = op.k;
  options.collect_latencies = g_spans.enabled;
  return Traced(RunSpanName(op.engine), [&] { return exec::RunTopK(plan, options); });
}

Result<exec::TopKResult> Runner::ColdOp(const Op& op, const std::string& xpath) {
  // Mirrors `whirlpool query --snapshot` (tools/cli.cc CmdQuery).
  std::unique_ptr<xml::Document> doc = Check(
      Traced("xml.snapshot_load", [&] { return xml::LoadSnapshot(args_.dir + "/doc.snap"); }),
      "snapshot");
  auto idx = BuildIndex(*doc);
  Result<exec::TopKResult> r = [&] {
    auto c = Compile(*idx, xpath);
    return Execute(*c->plan, op);
  }();
  if (r.ok()) {
    Traced("xml.dewey", [&] {
      const xml::DeweyIndex dewey(*doc);
      std::vector<std::string> labels;
      for (const exec::Answer& a : r->answers) labels.push_back(dewey.label(a.root).ToString());
      return labels;
    });
  }
  Traced("index.destroy", [&] { idx.reset(); });
  Traced("xml.destroy", [&] { doc.reset(); });
  return r;
}

void Runner::Count(const Result<exec::TopKResult>& r, const Op& op) {
  ++attempted_;
  const std::string why = Verify(r, op);
  if (why.empty()) return;
  ++failed_;
  if (failures_.size() < 5) {
    failures_.push_back(RefKey(op.key, op.k) + " " + EngineName(op.engine) + ": " + why);
  }
}

std::string Runner::Verify(const Result<exec::TopKResult>& r, const Op& op) const {
  if (!r.ok()) return r.status().ToString();
  if (r->approximate) return "approximate result";
  const auto it = refs_.find(RefKey(op.key, op.k));
  if (it == refs_.end()) return "no reference for " + RefKey(op.key, op.k);
  const std::vector<double>& want = it->second.scores;
  if (r->answers.size() != want.size()) {
    return std::to_string(r->answers.size()) + " answers, reference has " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::abs(r->answers[i].score - want[i]) > kScoreTolerance) {
      return "score #" + std::to_string(i) + " is " + Num(r->answers[i].score) +
             ", reference " + Num(want[i]);
    }
  }
  return "";
}

void Runner::RunOp(const Op& op, int cycle, bool record) {
  const std::string xpath = XPathFor(op.key);
  g_spans.op = next_op_++;
  const uint64_t t0 = NowNs();
  Result<exec::TopKResult> r = Status::Internal("not run");
  {
    Span span("op");
    if (IsCold()) {
      r = ColdOp(op, xpath);
    } else if (IsDeep()) {
      r = Execute(*plans_.at(op.key)->plan, op);
    } else {
      auto c = Compile(*idx_, xpath);
      r = Execute(*c->plan, op);
    }
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  g_spans.op = -1;
  // A CLI query is a fresh process: hand the freed heap back to the kernel,
  // untimed, so the next op faults its pages in again and fragmentation from
  // earlier ops does not build up.
  if (IsCold()) malloc_trim(0);

  Count(r, op);
  if (!record) return;
  const exec::MetricsSnapshot m = r.ok() ? r->metrics : exec::MetricsSnapshot{};
  const auto ref = refs_.find(RefKey(op.key, op.k));
  samples_ << (samples_.tellp() > 0 ? ", " : "") << "{\"cycle\": " << cycle
           << ", \"query\": \"" << op.key << "\", \"engine\": \"" << EngineName(op.engine)
           << "\", \"k\": " << op.k << ", \"traced\": " << (tracing_ops_ ? 1 : 0)
           << ", \"ms\": " << Num(ms) << ", \"server_ops\": " << m.server_operations
           << ", \"matches_created\": " << m.matches_created
           << ", \"matches_pruned\": " << m.matches_pruned
           << ", \"matches_completed\": " << m.matches_completed
           << ", \"predicate_comparisons\": " << m.predicate_comparisons
           << ", \"routing_decisions\": " << m.routing_decisions
           << ", \"root_candidates\": " << (ref == refs_.end() ? 0 : ref->second.roots)
           << ", \"server_op_us_mean\": " << Num(m.server_op_latency.mean_us)
           << ", \"queue_wait_us_mean\": " << Num(m.queue_wait_latency.mean_us) << "}";
}

void Runner::Probe() {
  // Nothing here is an op of the workload: the probe's spans carry no op id
  // and its runs add no latency sample.
  std::unique_ptr<xml::Document> doc;
  if (IsCold()) {
    const std::string text = ReadFile(args_.dir + "/doc.xml");
    doc = Check(Traced("xml.parse", [&] { return xml::ParseDocument(text); }), "parse");
  } else {
    doc = Check(
        Traced("xml.snapshot_load", [&] { return xml::LoadSnapshot(args_.dir + "/doc.snap"); }),
        "snapshot");
    Traced("xml.dewey", [&] {
      const xml::DeweyIndex dewey(*doc);
      return dewey.size();
    });
  }
  // Splits the tag lists from the value index.
  Traced("index.build_novalue", [&] { return index::TagIndex(*doc, false); });
  if (IsDeep()) return;  // its own ops run W-M and LockStep

  g_spans.enabled = false;  // this index and plan are not samples
  const index::TagIndex idx(*doc);
  auto c = Compile(idx, XPathFor("Q2"));
  g_spans.enabled = true;
  for (const Op& op : {Op{"Q2", exec::EngineKind::kWhirlpoolM, kDeepK},
                       Op{"Q2", exec::EngineKind::kLockStep, kSmallK}}) {
    const Result<exec::TopKResult> r = Execute(*c->plan, op);
    Count(r, op);
    if (r.ok() && op.engine == exec::EngineKind::kWhirlpoolM) {
      probe_queue_wait_us_ = r->metrics.queue_wait_latency.mean_us;
    }
  }
}

int Runner::Run() {
  if (args_.workload != "hot_mix" && args_.workload != "engine_deep" && !IsCold()) {
    Die("unknown workload " + args_.workload);
  }
  g_spans.enabled = args_.trace;
  if (args_.trace) g_spans.records.reserve(1 << 16);

  // Set-up, repeated; the last one stays for the timed phase. cold_start has
  // no resident state: its set-up is one untimed warm-up op, which also
  // brings the snapshot into the page cache.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (IsCold()) {
      const uint64_t t0 = NowNs();
      RunOp({"Q1", exec::EngineKind::kWhirlpoolS, kSmallK}, -1, false);
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    } else {
      if (rep > 0) TeardownResident();
      setup_s_.push_back(SetupResident());
    }
  }

  // Timed phase: whole cycles until --seconds have passed. The traced run
  // alternates untraced and traced cycles, so its untraced half gives the
  // baseline for trace.overhead_pct.
  const uint64_t start = NowNs();
  int cycle = 0;
  for (;; ++cycle) {
    tracing_ops_ = args_.trace && cycle % 2 == 1;
    g_spans.enabled = tracing_ops_;
    for (const Op& op : NextCycle()) RunOp(op, cycle, true);
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= args_.seconds && (!args_.trace || cycle >= 1)) break;
  }
  const double timed_s = static_cast<double>(NowNs() - start) / 1e9;
  tracing_ops_ = false;

  g_spans.enabled = args_.trace;
  if (args_.trace) Probe();
  if (!IsCold()) TeardownResident();
  if (args_.trace) WriteSpans(args_.spans);
  Emit(timed_s);
  return 0;
}

void Runner::Emit(double timed_s) const {
  std::ostringstream out;
  out << "{\"workload\": \"" << args_.workload << "\", \"seed\": " << args_.seed
      << ", \"trace\": " << (args_.trace ? 1 : 0) << ", \"compiler\": \""
      << WPBENCH_COMPILER << "\", \"build_type\": \"" << WPBENCH_BUILD_TYPE
      << "\", \"setup_s\": [";
  for (size_t i = 0; i < setup_s_.size(); ++i) out << (i ? ", " : "") << Num(setup_s_[i]);
  out << "], \"index_rss_mb\": " << Num(index_rss_mb_)
      << ", \"peak_rss_mb\": " << Num(ProcStatusMb("VmHWM")) << ", \"timed_s\": " << Num(timed_s)
      << ", \"probe_queue_wait_us_mean\": " << Num(probe_queue_wait_us_)
      << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << util::JsonEscape(failures_[i]) << "\"";
  }
  out << "], \"ops\": [" << samples_.str() << "]}";
  std::printf("%s\n", out.str().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: wpbench gen --seed N --dir D\n"
               "       wpbench run --workload hot_mix|engine_deep|cold_start --seed N --dir D\n"
               "                   --seconds S --trace 0|1 --spans FILE [--perturb-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--perturb-reference") {
      flags[a] = "1";
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[a] = argv[++i];
    } else {
      return Usage();
    }
  }
  auto get = [&](const char* name) {
    const auto it = flags.find(name);
    if (it == flags.end()) Die(std::string("missing ") + name);
    return it->second;
  };
  const uint64_t seed = std::strtoull(get("--seed").c_str(), nullptr, 10);
  if (cmd == "gen") return CmdGen(seed, get("--dir"));
  if (cmd != "run") return Usage();
  RunArgs args;
  args.workload = get("--workload");
  args.dir = get("--dir");
  args.seed = seed;
  args.seconds = std::atof(get("--seconds").c_str());
  args.trace = get("--trace") == "1";
  args.spans = args.trace ? get("--spans") : "";
  args.perturb = flags.count("--perturb-reference") > 0;
  return Runner(std::move(args)).Run();
}
