// End-to-end benchmark driver: runs one workload through the program's
// public entry points (RunService, RunIngest, VM + Workload::Setup/Op) and
// prints one JSON object with the raw measurements, the per-layer counters
// the program already publishes, and the outcome of each correctness check.
// run.py turns that object into the benchmark's metrics.
//
//   perfbench_driver --workload <kv-rolp|ingest-rolp|graph-g1|graph-zgc>
//                    --seed <n> --seconds <s> [--spans <path>]
//
// With --spans the driver also writes the benchmark's own spans (VM
// construction, Setup, every Op, RunIngest) as JSON lines to <path>. The
// program's own trace and metrics outputs are switched on by the caller
// through ROLP_TRACE / ROLP_METRICS_DUMP.
//
// Nothing here reaches into src/ internals: every number is timed around a
// call into a layer, read from a counter the layer publishes, or (kvstore
// lateness) rebuilt from the service harness's seeded arrival schedule and
// checked against the harness's own percentiles.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/gc/heap_verifier.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/gc/zgc_collector.h"
#include "src/runtime/thread.h"
#include "src/runtime/vm.h"
#include "src/service/open_loop.h"
#include "src/util/clock.h"
#include "src/util/random.h"
#include "src/workloads/graph.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/marketdata/book.h"
#include "src/workloads/marketdata/feed.h"
#include "src/workloads/marketdata/pipeline.h"

namespace rolp {
namespace {

// ---------------------------------------------------------------------------
// Fixed workload parameters. They are part of the benchmark definition: a
// later change must run exactly these to be comparable (see README.md).

constexpr size_t kHeapMb = 96;
constexpr uint32_t kGcWorkers = 2;
constexpr int kSetupRepeats = 15;  // set-up timed this many times per run
constexpr uint32_t kSetupGroup = 100;  // span group of the set-up repeats
// The open-loop workloads split --seconds over this many fresh VMs. Their
// tails are set by a handful of pauses (and any scheduler hiccup) per VM;
// several VMs keep one unlucky VM from setting the run's figure. A kvstore
// VM needs about 5 s to get through ROLP's learning transient.
constexpr int kKvReps = 5;
constexpr int kIngestReps = 5;

constexpr double kKvRateRps = 15000.0;
constexpr uint64_t kKvKeys = 60000;
constexpr uint64_t kKvFlushRows = 24000;

constexpr double kIngestRateEps = 100000.0;
constexpr marketdata::PipelineMode kIngestMode = marketdata::PipelineMode::kFused;

constexpr uint64_t kGraphVertices = 60000;
constexpr uint64_t kGraphIntervals = 24;
constexpr uint64_t kGraphIterationsPerSecond = 80;  // of --seconds, over all batches
constexpr int kGraphBatches = 5;

// ---------------------------------------------------------------------------
// Minimal JSON writer (objects of numbers, strings, bools and arrays).

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ << buf;
    return *this;
  }
  Json& Int(uint64_t v) {
    Sep();
    out_ << v;
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& NumArray(const std::vector<double>& v) {
    Open('[');
    for (double x : v) {
      Num(x);
    }
    return Close(']');
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) {
      out_ << ',';
    }
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Spans: the benchmark's own, recorded around calls into the program.

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t group;  // which repeat/batch the span belongs to (its parent)
  uint64_t id;     // Op: the op_index the program passed
};

class SpanLog {
 public:
  void Add(const char* name, uint64_t start, uint64_t end, uint32_t group) {
    std::lock_guard<std::mutex> guard(mu_);
    spans_.push_back({name, start, end, group, 0});
  }
  // Spans of one Op are recorded lock-free into a preallocated array: two
  // service workers call Op concurrently and must not serialize on a lock the
  // untimed program never takes.
  void ReserveOps(size_t n) { ops_.resize(n); }
  void AddOp(uint64_t start, uint64_t end, uint32_t group, uint64_t id) {
    size_t i = op_count_.fetch_add(1, std::memory_order_relaxed);
    if (i < ops_.size()) {
      ops_[i] = {"workload.op", start, end, group, id};
    }
  }
  // Ops whose record did not fit the reserved array (a sizing bug: the
  // caller reserves for the largest possible schedule).
  size_t ops_lost() const {
    size_t n = op_count_.load(std::memory_order_relaxed);
    return n > ops_.size() ? n - ops_.size() : 0;
  }
  const Span& op(size_t i) const { return ops_[i]; }
  size_t op_count() const {
    return std::min(op_count_.load(std::memory_order_relaxed), ops_.size());
  }
  std::vector<double> OpDurationsUs(uint32_t group) const {
    std::vector<double> out;
    for (size_t i = 0; i < op_count(); i++) {
      if (ops_[i].group == group) {
        out.push_back(static_cast<double>(ops_[i].end_ns - ops_[i].start_ns) / 1e3);
      }
    }
    return out;
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    auto emit = [f](const Span& s) {
      std::fprintf(f, "{\"name\":\"%s\",\"group\":%u,\"start_ns\":%" PRIu64
                      ",\"end_ns\":%" PRIu64 "}\n",
                   s.name, s.group, s.start_ns, s.end_ns);
    };
    for (const Span& s : spans_) {
      emit(s);
    }
    for (size_t i = 0; i < op_count(); i++) {
      emit(ops_[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Span> ops_;
  std::atomic<size_t> op_count_{0};
};

// ---------------------------------------------------------------------------
// Checks and per-layer counters.

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

using Layers = std::map<std::string, double>;

// Reads every collector/heap/profiler counter the layers publish, from a VM
// that is still alive and quiescent.
void ReadVmLayers(VM& vm, Layers* out) {
  Layers& l = *out;
  GcMetrics& gm = vm.collector().metrics();
  l["gc.pause.scan_ms"] = static_cast<double>(gm.PauseScanNs()) / 1e6;
  l["gc.pause.evac_ms"] = static_cast<double>(gm.PauseEvacNs()) / 1e6;
  l["gc.pause.profiler_ms"] = static_cast<double>(gm.PauseProfilerNs()) / 1e6;
  l["gc.phase_cpu.mark_ms"] =
      static_cast<double>(gm.PhaseCpuNs(static_cast<size_t>(GcPhase::kMark))) / 1e6;
  l["gc.phase_cpu.scan_ms"] =
      static_cast<double>(gm.PhaseCpuNs(static_cast<size_t>(GcPhase::kScan))) / 1e6;
  l["gc.phase_cpu.evacuate_ms"] =
      static_cast<double>(gm.PhaseCpuNs(static_cast<size_t>(GcPhase::kEvacuate))) / 1e6;
  l["gc.copied_mb"] = static_cast<double>(gm.BytesCopied()) / (1024.0 * 1024.0);
  l["gc.allocated_mb"] =
      static_cast<double>(vm.heap().total_allocated_bytes()) / (1024.0 * 1024.0);
  l["gc.concurrent_work_ms"] = static_cast<double>(gm.ConcurrentWorkNs()) / 1e6;
  l["heap.region_lock.stall_ms"] =
      static_cast<double>(vm.heap().regions().lock_stall_ns()) / 1e6;
  l["heap.governor.throttle_stalls"] =
      static_cast<double>(vm.heap().governor().throttle_stalls());
  if (vm.config().gc == GcKind::kZgc) {
    auto& z = static_cast<ZgcCollector&>(vm.collector());
    l["zgc.healed_slots"] = static_cast<double>(z.barrier_healed_slots());
    l["zgc.gc_relocated"] = static_cast<double>(z.gc_relocated_objects());
  }
  if (Profiler* p = vm.profiler()) {
    l["rolp.inferences"] = static_cast<double>(p->inferences_run());
    l["rolp.decisions"] = static_cast<double>(p->decisions_count());
    l["rolp.first_decision_cycle"] = static_cast<double>(p->first_decision_cycle());
    l["rolp.survivors_seen"] = static_cast<double>(p->survivors_seen());
  }
}

std::vector<double> PauseDurationsMs(VM& vm) {
  std::vector<double> out;
  for (const PauseRecord& rec : vm.collector().metrics().Pauses()) {
    out.push_back(static_cast<double>(rec.duration_ns) / 1e6);
  }
  return out;
}

// Full verification of a quiescent heap: no mutator is attached and no
// collection runs, so the serial walk sees a stable heap.
Check VerifyHeap(VM& vm, const char* name) {
  // ZGC keeps no remembered sets, so its heap is verified without them (as
  // the collector's own in-pause verification does).
  HeapVerifier verifier(&vm.heap(), &vm.safepoints(),
                        /*check_remsets=*/vm.config().gc != GcKind::kZgc);
  HeapVerifier::Report report = verifier.Verify();
  bool ok = report.ok() && report.findings.empty();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "objects=%" PRIu64 " refs=%" PRIu64 " findings=%zu errors=%zu",
                report.objects_walked, report.refs_checked, report.findings.size(),
                report.errors.size());
  std::string detail = buf;
  if (!ok) {
    detail += " " + report.Summary();
  }
  return {name, ok, detail};
}

VmConfig BaseVmConfig(const char* gc_flag, uint64_t seed) {
  VmConfig cfg;
  std::string error;
  char heap[32];
  std::snprintf(heap, sizeof(heap), "-Xmx%zum", kHeapMb);
  char workers[48];
  std::snprintf(workers, sizeof(workers), "-XX:ParallelGCThreads=%u", kGcWorkers);
  if (!VmConfig::ParseFlags({heap, gc_flag, workers}, &cfg, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  // The scaled-down heap settings the repository's examples and figure
  // harnesses use, so middle-lived data spans several young collections.
  cfg.young_fraction = 0.10;
  cfg.jit.hot_threshold = 100;
  cfg.seed = seed;
  return cfg;
}

// One repetition of an open-loop workload (a fresh VM each).
struct Rep {
  double program_p50_us = 0, program_p99_us = 0, program_p999_us = 0;  // as the program reports
  std::vector<double> lateness_us;  // kv: every executed request, from its scheduled arrival
  std::vector<double> pause_ms;     // kv: every pause
  double pause_total_ms = 0;
  double heap_peak_mb = 0;
  double run_s = 0;                 // schedule start to the harness's return
  uint64_t not_executed = 0;        // kv: refused or shed requests
};

struct Output {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Check> checks;
  std::vector<double> setup_s;
  std::vector<double> vm_init_ms;
  std::vector<double> workload_setup_ms;
  std::vector<Rep> reps;
  std::vector<double> batch_s;        // graph: each batch
  std::vector<double> op_latency_us;  // every Op the benchmark timed
  std::vector<double> pause_ms;       // graph: every pause of every batch
  double pause_total_ms = 0;          // graph: all batches
  double heap_peak_mb = 0;
  Layers layers;
  std::map<std::string, std::string> config;
};

// Adds `from` into `into`: counters sum over repetitions, a cycle number
// keeps the largest value.
void MergeLayers(const Layers& from, Layers* into) {
  for (const auto& [k, v] : from) {
    bool keep_max = k.find("_cycle") != std::string::npos;
    double& dst = (*into)[k];
    dst = keep_max ? std::max(dst, v) : dst + v;
  }
}

// VM construction + Workload::Setup, timed from outside, kSetupRepeats times.
void TimeSetups(const VmConfig& cfg, const std::function<std::unique_ptr<Workload>()>& make,
                SpanLog* spans, Output* out) {
  for (int i = 0; i < kSetupRepeats; i++) {
    std::unique_ptr<Workload> w = make();
    VmConfig c = cfg;
    if (c.gc == GcKind::kRolp) {
      w->ConfigureFilter(&c.filter);
    }
    uint64_t t0 = NowNs();
    auto vm = std::make_unique<VM>(c);
    uint64_t t1 = NowNs();
    RuntimeThread* t = vm->AttachThread();
    w->Setup(*vm, *t);
    vm->DetachThread(t);
    uint64_t t2 = NowNs();
    spans->Add("setup.vm_init", t0, t1, kSetupGroup + i);
    spans->Add("setup.workload_setup", t1, t2, kSetupGroup + i);
    out->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    out->vm_init_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out->workload_setup_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    w->Teardown();
    vm.reset();
  }
}

// ---------------------------------------------------------------------------
// kv-rolp: the kvstore behind the open-loop service harness.

// Times Setup and every Op of the wrapped workload from outside, and, at
// Teardown (the service harness calls it while its VM is still alive, after
// every mutator has detached), reads the VM's counters and verifies the
// final heap.
class TimedWorkload : public Workload {
 public:
  TimedWorkload(Workload* inner, SpanLog* spans, uint32_t group)
      : inner_(inner), spans_(spans), group_(group) {}

  std::string name() const override { return inner_->name(); }
  void ConfigureFilter(PackageFilter* filter) const override { inner_->ConfigureFilter(filter); }
  void Setup(VM& vm, RuntimeThread& t) override {
    vm_ = &vm;
    setup_start_ns = NowNs();
    inner_->Setup(vm, t);
    setup_end_ns = NowNs();
  }
  void Op(RuntimeThread& t, uint64_t op_index) override {
    uint64_t start = NowNs();
    inner_->Op(t, op_index);
    spans_->AddOp(start, NowNs(), group_, op_index);
  }
  void Teardown() override {
    ReadVmLayers(*vm_, &layers);
    pause_ms = PauseDurationsMs(*vm_);
    heap_check = VerifyHeap(*vm_, "kv.final_heap_verify");
    inner_->Teardown();
  }

  uint64_t setup_start_ns = 0;
  uint64_t setup_end_ns = 0;
  Layers layers;
  std::vector<double> pause_ms;
  Check heap_check{"kv.final_heap_verify", false, "heap not verified"};

 private:
  Workload* inner_;
  SpanLog* spans_;
  uint32_t group_;
  VM* vm_ = nullptr;
};

KvStoreOptions KvOptions(uint64_t seed) {
  KvStoreOptions kv;
  kv.write_fraction = 0.75;  // the paper's write-intensive Cassandra mix
  kv.num_keys = kKvKeys;
  kv.memtable_flush_rows = kKvFlushRows;
  kv.seed = seed;
  return kv;
}

// Offsets from the schedule start of the first `n` arrivals RunService
// generates for `options` (Poisson): per fresh arrival it draws two values
// from one SplitMix64 stream seeded with seed ^ 0x9e3779b97f4a7c15, the
// request class and then the exponential gap. The program reports lateness
// only as a log-bucketed histogram (~3% steps); rebuilding the schedule
// gives every request's exact lateness. run.py checks the result against the
// program's own percentiles (kv.lateness_matches_program), so a change to the
// generator fails the run instead of skewing it.
std::vector<uint64_t> ArrivalOffsets(const ServiceOptions& options, size_t n) {
  std::vector<uint64_t> out(n);
  uint64_t rng = options.seed ^ 0x9e3779b97f4a7c15ULL;
  const double mean_gap_ns = 1e9 / options.rate_rps;
  uint64_t next = 0;
  for (size_t i = 0; i < n; i++) {
    out[i] = next;
    SplitMix64(&rng);  // request class
    double u2 = static_cast<double>(SplitMix64(&rng) >> 11) * 0x1.0p-53;
    double gap = -std::log(1.0 - u2) * mean_gap_ns;
    next += std::max<uint64_t>(static_cast<uint64_t>(gap), 1);
  }
  return out;
}

void RunKv(uint64_t seed, double seconds, SpanLog* spans, Output* out) {
  VmConfig cfg = BaseVmConfig("-XX:+UseROLP", seed);
  // The paper infers every 16 GC cycles, a cadence for services that run for
  // hours. A run of seconds would spend most of its pauses before the first
  // decision; RunIngest infers every cycle for the same reason.
  cfg.rolp.inference_period = 1;
  TimeSetups(cfg, [seed] { return std::make_unique<KvStoreWorkload>(KvOptions(seed)); }, spans,
             out);

  const double rep_s = seconds / kKvReps;
  spans->ReserveOps(static_cast<size_t>(kKvRateRps * seconds * 1.5) + 4096);
  uint64_t offered = 0, rejected = 0, shed = 0, deadline_miss = 0;
  double lag_sum = 0, wait_sum = 0, segment_count = 0;
  std::vector<double> wait_p99;
  bool conserved = true, schedule_ok = true;
  std::string conservation_detail, schedule_detail;
  ServiceOptions svc = ServiceOptions::FromEnv();  // default admission/retry/SLO
  for (int rep = 0; rep < kKvReps; rep++) {
    const uint32_t group = static_cast<uint32_t>(rep);
    KvStoreWorkload kv(KvOptions(seed + rep));
    TimedWorkload timed(&kv, spans, group);
    svc.workers = 2;
    svc.rate_rps = kKvRateRps;
    svc.poisson_arrivals = true;
    svc.duration_s = rep_s;
    svc.seed = seed + rep;

    size_t ops_before = spans->op_count();
    uint64_t t0 = NowNs();
    ServiceResult r = RunService(cfg, timed, svc);
    uint64_t t1 = NowNs();
    spans->Add("service.run", t0, t1, group);
    spans->Add("service.vm_init", t0, timed.setup_start_ns, group);
    spans->Add("service.workload_setup", timed.setup_start_ns, timed.setup_end_ns, group);

    // Lateness of every executed request from its scheduled arrival. The
    // schedule starts after Setup returns and no request executes before its
    // arrival, so the latest start consistent with every op bounds it.
    std::vector<uint64_t> offsets = ArrivalOffsets(svc, r.offered);
    uint64_t start = UINT64_MAX;
    size_t ops_after = spans->op_count();
    bool ids_ok = true;
    for (size_t i = ops_before; i < ops_after; i++) {
      const Span& op = spans->op(i);
      if (op.id >= offsets.size()) {
        ids_ok = false;
        continue;
      }
      start = std::min(start, op.start_ns - offsets[op.id]);
    }
    Rep out_rep;
    for (size_t i = ops_before; i < ops_after && ids_ok; i++) {
      const Span& op = spans->op(i);
      out_rep.lateness_us.push_back(
          static_cast<double>(static_cast<int64_t>(op.end_ns - (start + offsets[op.id]))) / 1e3);
    }
    const SloReporter::Snapshot& s = r.slo;
    out_rep.program_p50_us = s.alltime.p50_ms * 1e3;
    out_rep.program_p99_us = s.alltime.p99_ms * 1e3;
    out_rep.program_p999_us = s.alltime.p999_ms * 1e3;
    out_rep.not_executed = s.rejected + s.shed + s.failed;
    const double start_gap_us =
        (static_cast<double>(start) - static_cast<double>(timed.setup_end_ns)) / 1e3;
    out_rep.pause_ms = timed.pause_ms;
    out_rep.pause_total_ms = r.run.TotalPauseMs();
    out_rep.heap_peak_mb = static_cast<double>(r.run.max_used_bytes) / (1024.0 * 1024.0);
    out_rep.run_s = static_cast<double>(t1 - timed.setup_end_ns) / 1e9;
    // The schedule cannot start before Setup ends, nor long after.
    bool rep_schedule_ok = ids_ok && spans->ops_lost() == 0 && start != UINT64_MAX &&
                           start_gap_us >= 0 && start_gap_us < 10000;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "rep %d: start %.1f us after Setup, %zu ops, ids %s; ", rep,
                  start_gap_us, ops_after - ops_before, ids_ok ? "ok" : "out of range");
    schedule_detail += buf;
    schedule_ok = schedule_ok && rep_schedule_ok;
    out->reps.push_back(std::move(out_rep));

    // Every offered request ends in exactly one terminal outcome.
    uint64_t outcomes = s.ok + s.deadline_miss + s.rejected + s.shed + s.failed;
    uint64_t harness = r.completed_ok + r.deadline_miss + r.rejected + r.shed_queue_full +
                       r.shed_deadline + r.shed_drain;
    std::snprintf(buf, sizeof(buf),
                  "rep %d: offered=%" PRIu64 " ok=%" PRIu64 " deadline_miss=%" PRIu64
                  " rejected=%" PRIu64 " shed=%" PRIu64 " failed=%" PRIu64 " harness_sum=%" PRIu64
                  "; ",
                  rep, r.offered, s.ok, s.deadline_miss, s.rejected, s.shed, s.failed, harness);
    conservation_detail += buf;
    conserved = conserved && r.survived && r.offered > 0 && outcomes == r.offered &&
                s.total == r.offered && harness == r.offered;
    timed.heap_check.name = "kv.final_heap_verify";
    timed.heap_check.detail = "rep " + std::to_string(rep) + ": " + timed.heap_check.detail;
    out->checks.push_back(timed.heap_check);

    offered += r.offered;
    rejected += r.rejected;
    shed += r.shed_queue_full + r.shed_deadline + r.shed_drain;
    deadline_miss += r.deadline_miss;
    double n = static_cast<double>(s.seg_queue_wait.count);
    lag_sum += s.seg_sched_to_enqueue.mean_ms * 1e3 * n;
    wait_sum += s.seg_queue_wait.mean_ms * 1e3 * n;
    segment_count += n;
    wait_p99.push_back(s.seg_queue_wait.p99_ms * 1e3);
    MergeLayers(timed.layers, &out->layers);
  }
  out->checks.push_back({"kv.request_conservation", conserved, conservation_detail});
  out->checks.push_back({"kv.schedule_rebuilt", schedule_ok, schedule_detail});

  out->attempted = offered;
  // Every offered request is an operation. Refusals and sheds are reported
  // in service.* and not counted as failed: they depend on timing, so their
  // number differs from run to run (see README.md).
  out->failed = 0;

  Layers& l = out->layers;
  std::sort(wait_p99.begin(), wait_p99.end());
  l["service.offered"] = static_cast<double>(offered);
  l["service.rejected"] = static_cast<double>(rejected);
  l["service.shed"] = static_cast<double>(shed);
  l["service.deadline_miss"] = static_cast<double>(deadline_miss);
  l["service.generator_lag_us"] = segment_count > 0 ? lag_sum / segment_count : 0.0;
  l["service.queue_wait_mean_us"] = segment_count > 0 ? wait_sum / segment_count : 0.0;
  l["service.queue_wait_p99_us"] = wait_p99[wait_p99.size() / 2];
  for (int rep = 0; rep < kKvReps; rep++) {
    std::vector<double> d = spans->OpDurationsUs(static_cast<uint32_t>(rep));
    out->op_latency_us.insert(out->op_latency_us.end(), d.begin(), d.end());
  }

  out->config["kv.rate_rps"] = std::to_string(kKvRateRps);
  out->config["kv.arrivals"] = "poisson";
  out->config["kv.reps"] = std::to_string(kKvReps);
  out->config["kv.rep_s"] = std::to_string(rep_s);
  out->config["kv.write_fraction"] = "0.75";
  out->config["kv.keys"] = std::to_string(kKvKeys);
  out->config["kv.memtable_flush_rows"] = std::to_string(kKvFlushRows);
  out->config["kv.inference_period"] = std::to_string(cfg.rolp.inference_period);
  out->config["service.workers"] = std::to_string(svc.workers);
  out->config["service.queue_capacity"] = std::to_string(svc.admission.queue_capacity);
  out->config["service.deadline_ms"] = std::to_string(svc.admission.deadline_ms);
  out->config["service.retry_max_attempts"] = std::to_string(svc.retry.max_attempts);
}

// ---------------------------------------------------------------------------
// ingest-rolp: the market-data pipeline, ROLP arm.

marketdata::IngestOptions IngestOpts(uint64_t seed, double seconds) {
  marketdata::IngestOptions o;  // defaults: 96 MB heap, 4096-slot rings, 512 B ticks
  o.rate_eps = kIngestRateEps;
  o.events = static_cast<uint64_t>(kIngestRateEps * seconds);
  o.seed = seed;
  o.mode = kIngestMode;
  // Jitter is measured after the first fifth of the schedule (default: half),
  // so the window holds the pauses of the growing book (see README.md).
  o.warmup_fraction = 0.2;
  return o;
}

// The VM + book RunIngest builds before its first event, rebuilt here with
// the same settings so the set-up cost can be timed from outside.
void TimeIngestSetups(const marketdata::IngestOptions& o, SpanLog* spans, Output* out) {
  for (int i = 0; i < kSetupRepeats; i++) {
    VmConfig cfg;
    cfg.heap_mb = o.heap_mb;
    cfg.gc = GcKind::kRolp;
    cfg.jit.hot_threshold = 1;
    cfg.seed = o.seed;
    cfg.filter.Include("md.book");
    cfg.filter.Include("md.analytics");
    cfg.filter.Include("md.feed");
    cfg.rolp.inference_period = 1;
    uint64_t t0 = NowNs();
    auto vm = std::make_unique<VM>(cfg);
    uint64_t t1 = NowNs();
    RuntimeThread* t = vm->AttachThread();
    std::unique_ptr<marketdata::OrderBook> book = marketdata::MakeVmBook(*vm, *t, o.book);
    vm->jit().CompileAll();
    vm->DetachThread(t);
    uint64_t t2 = NowNs();
    spans->Add("setup.vm_init", t0, t1, kSetupGroup + i);
    spans->Add("setup.workload_setup", t1, t2, kSetupGroup + i);
    out->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    out->vm_init_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out->workload_setup_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    book.reset();
    vm.reset();
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void RunIngestWorkload(uint64_t seed, double seconds, SpanLog* spans, Output* out) {
  // Each repetition's VM writes the program's teardown metrics dump to its
  // own file, <ROLP_METRICS_DUMP>.rep<i>, for run.py to read.
  const char* dump_env = std::getenv("ROLP_METRICS_DUMP");
  const std::string dump_base = dump_env != nullptr ? dump_env : "";

  // RunIngest first, in a fresh process, so the peak RSS read after it is
  // the pipeline's own (heap, rings, book) and not a set-up VM's.
  std::vector<marketdata::IngestResult> results;
  std::vector<uint64_t> wall_ns;
  for (int rep = 0; rep < kIngestReps; rep++) {
    if (!dump_base.empty()) {
      setenv("ROLP_METRICS_DUMP", (dump_base + ".rep" + std::to_string(rep)).c_str(), 1);
    }
    marketdata::IngestOptions o = IngestOpts(seed + rep, seconds / kIngestReps);
    uint64_t t0 = NowNs();
    results.push_back(marketdata::RunIngest(marketdata::ArmKind::kRolp, o));
    uint64_t t1 = NowNs();
    spans->Add("ingest.run", t0, t1, static_cast<uint32_t>(rep));
    wall_ns.push_back(t1 - t0);
  }
  out->heap_peak_mb = PeakRssMb();
  unsetenv("ROLP_METRICS_DUMP");  // the set-up VMs below must not write one
  TimeIngestSetups(IngestOpts(seed, seconds / kIngestReps), spans, out);
  std::vector<double> setups = out->setup_s;
  std::sort(setups.begin(), setups.end());
  const double setup_median_s = setups[setups.size() / 2];

  Layers& l = out->layers;
  uint64_t events = 0;
  for (int rep = 0; rep < kIngestReps; rep++) {
    const marketdata::IngestResult& r = results[rep];
    Rep out_rep;
    out_rep.program_p50_us = static_cast<double>(r.p50_ns) / 1e3;
    out_rep.program_p99_us = static_cast<double>(r.p99_ns) / 1e3;
    out_rep.program_p999_us = static_cast<double>(r.p999_ns) / 1e3;
    // Time to complete the fixed event schedule, set-up excluded: RunIngest's
    // wall time minus the median rebuilt set-up.
    out_rep.run_s = static_cast<double>(wall_ns[rep]) / 1e9 - setup_median_s;
    out->reps.push_back(out_rep);
    l["heap.governor.throttle_stalls"] += static_cast<double>(r.governor_throttle_stalls);
    l["ingest.offered_eps"] += r.offered_eps / kIngestReps;
    l["ingest.alloc_ns_per_event"] += r.alloc_ns_per_event / kIngestReps;
    events += r.scheduled;

    // Independent replay: the same seeded feed, unpaced, through the GC-free
    // pooled book. Book state must match bit for bit.
    marketdata::IngestOptions o = IngestOpts(seed + rep, seconds / kIngestReps);
    std::unique_ptr<marketdata::OrderBook> pooled = marketdata::MakePooledBook(o.book);
    marketdata::FeedGenerator gen(o.seed, {o.book.symbols, o.book.price_levels,
                                           /*max_live_orders=*/65536});
    uint64_t replayed = 0;
    for (uint64_t seq = 0; seq < o.events; seq++) {
      marketdata::RawMsg raw;
      gen.Next(&raw);
      marketdata::ParsedEvent ev;
      if (!marketdata::ParseMsg(raw, &ev)) {
        continue;
      }
      ev.seq = seq;
      pooled->Apply(nullptr, ev);
      pooled->Analyze(nullptr, ev);
      replayed++;
    }
    marketdata::BookStats want = pooled->stats();
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "rep %d: checksum %016" PRIx64 "/%016" PRIx64 " resting %" PRIu64 "/%" PRIu64
                  " levels %" PRIu64 "/%" PRIu64 " analyzed %" PRIu64 " scheduled %" PRIu64
                  " replayed %" PRIu64,
                  rep, r.book.checksum, want.checksum, r.book.resting_orders,
                  want.resting_orders, r.book.live_levels, want.live_levels, r.analyzed,
                  r.scheduled, replayed);
    out->checks.push_back({"ingest.pooled_replay",
                           r.survived && r.book.checksum == want.checksum &&
                               r.book.resting_orders == want.resting_orders &&
                               r.book.live_levels == want.live_levels,
                           buf});
    out->checks.push_back({"ingest.all_analyzed", r.analyzed == r.scheduled, buf});
  }

  out->attempted = events;
  out->failed = 0;

  marketdata::IngestOptions o = IngestOpts(seed, seconds / kIngestReps);
  out->config["ingest.rate_eps"] = std::to_string(kIngestRateEps);
  out->config["ingest.reps"] = std::to_string(kIngestReps);
  out->config["ingest.events_per_rep"] = std::to_string(o.events);
  out->config["ingest.mode"] = "fused";
  out->config["ingest.warmup_fraction"] = std::to_string(o.warmup_fraction);
  out->config["ingest.ring_capacity"] = std::to_string(o.ring_capacity);
  out->config["ingest.heap_mb"] = std::to_string(o.heap_mb);
  out->config["ingest.tick_bytes"] = std::to_string(o.book.tick_bytes);
  out->config["ingest.gc_workers"] = std::to_string(GcConfig().num_workers);
}

// ---------------------------------------------------------------------------
// graph-g1 / graph-zgc: connected components, closed loop, one mutator.

GraphOptions GraphOpts(uint64_t seed) {
  GraphOptions g;
  g.algo = GraphAlgo::kConnectedComponents;
  g.vertices = kGraphVertices;
  g.intervals = kGraphIntervals;
  g.seed = seed;
  return g;
}

// Connected components of the same generated edge list, by union-find. The
// edge list is regenerated from the public Random / ZipfianGenerator classes
// exactly as GraphWorkload::Setup draws it; edges are undirected for CC.
std::vector<uint64_t> UnionFindLabels(const GraphOptions& o) {
  std::vector<uint64_t> parent(o.vertices);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](uint64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  Random rng(o.seed);
  ZipfianGenerator targets(o.vertices, 0.7, o.seed ^ 0x9e37);
  for (uint64_t v = 0; v < o.vertices; v++) {
    uint64_t degree = 1 + rng.NextBounded(2 * o.edges_per_vertex - 1);
    for (uint64_t e = 0; e < degree; e++) {
      uint64_t to = targets.Next();
      to = to == v ? (to + 1) % o.vertices : to;
      uint64_t a = find(v), b = find(to);
      if (a != b) {
        // Union by smaller root id keeps every root the component minimum.
        if (a < b) {
          parent[b] = a;
        } else {
          parent[a] = b;
        }
      }
    }
  }
  std::vector<uint64_t> labels(o.vertices);
  for (uint64_t v = 0; v < o.vertices; v++) {
    labels[v] = find(v);
  }
  return labels;
}

void RunGraph(const char* gc_flag, uint64_t seed, double seconds, SpanLog* spans,
              Output* out) {
  GraphOptions go = GraphOpts(seed);
  VmConfig cfg = BaseVmConfig(gc_flag, seed);
  // A fixed iteration count for a given --seconds, never a time-bounded loop,
  // so batch_s compares the same work across changes.
  const uint64_t iterations =
      static_cast<uint64_t>(seconds * kGraphIterationsPerSecond) / kGraphBatches;
  const uint64_t ops_per_batch = iterations * kGraphIntervals;
  spans->ReserveOps(ops_per_batch * kGraphBatches);
  TimeSetups(cfg, [&go] { return std::make_unique<GraphWorkload>(go); }, spans, out);
  std::vector<uint64_t> want = UnionFindLabels(go);
  uint64_t mismatched_total = 0;
  uint64_t components = 0;
  for (uint64_t v = 0; v < go.vertices; v++) {
    components += want[v] == v ? 1 : 0;
  }

  for (int b = 0; b < kGraphBatches; b++) {
    GraphWorkload graph(go);
    uint64_t t0 = NowNs();
    auto vm = std::make_unique<VM>(cfg);
    uint64_t t1 = NowNs();
    RuntimeThread* t = vm->AttachThread();
    graph.Setup(*vm, *t);
    uint64_t t2 = NowNs();
    for (uint64_t op = 0; op < ops_per_batch; op++) {
      uint64_t s = NowNs();
      graph.Op(*t, op);
      spans->AddOp(s, NowNs(), static_cast<uint32_t>(b), op);
      t->Poll();
    }
    uint64_t t3 = NowNs();
    uint64_t mismatched = 0;
    for (uint64_t v = 0; v < go.vertices; v++) {
      mismatched += graph.VertexLabel(*t, v) == want[v] ? 0 : 1;
    }
    mismatched_total += mismatched;
    spans->Add("graph.vm_init", t0, t1, static_cast<uint32_t>(b));
    spans->Add("graph.workload_setup", t1, t2, static_cast<uint32_t>(b));
    spans->Add("graph.batch", t2, t3, static_cast<uint32_t>(b));
    out->batch_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    std::vector<double> pauses = PauseDurationsMs(*vm);
    out->pause_ms.insert(out->pause_ms.end(), pauses.begin(), pauses.end());
    out->pause_total_ms += static_cast<double>(vm->collector().metrics().TotalPauseNs()) / 1e6;
    out->heap_peak_mb = std::max(
        out->heap_peak_mb, static_cast<double>(vm->heap().max_used_bytes()) / (1024.0 * 1024.0));
    Layers layers;
    ReadVmLayers(*vm, &layers);
    MergeLayers(layers, &out->layers);
    // A ZGC heap between pauses legitimately holds forwarded objects while a
    // relocation is in flight: finish the cycle (after the counters above
    // are read) before verifying.
    if (cfg.gc == GcKind::kZgc) {
      vm->collector().CollectFull(&t->gc_context());
    }
    vm->DetachThread(t);
    Check verified = VerifyHeap(*vm, "graph.final_heap_verify");
    verified.detail = "batch " + std::to_string(b) + ": " + verified.detail;
    out->checks.push_back(verified);
    graph.Teardown();
    vm.reset();
  }
  std::vector<double> all_ops;
  for (int b = 0; b < kGraphBatches; b++) {
    std::vector<double> d = spans->OpDurationsUs(static_cast<uint32_t>(b));
    all_ops.insert(all_ops.end(), d.begin(), d.end());
  }
  out->op_latency_us = all_ops;

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%" PRIu64 " of %" PRIu64 " vertex labels differ from union-find (%" PRIu64
                " components) over %d batches",
                mismatched_total, go.vertices * kGraphBatches, components, kGraphBatches);
  out->checks.push_back({"graph.cc_labels_match_union_find", mismatched_total == 0, buf});
  out->attempted = ops_per_batch * kGraphBatches;
  out->failed = 0;
  out->layers["graph.components"] = static_cast<double>(components);

  out->config["graph.vertices"] = std::to_string(go.vertices);
  out->config["graph.edges_per_vertex"] = std::to_string(go.edges_per_vertex);
  out->config["graph.intervals"] = std::to_string(go.intervals);
  out->config["graph.iterations_per_batch"] = std::to_string(iterations);
  out->config["graph.batches"] = std::to_string(kGraphBatches);
  out->config["graph.mutators"] = "1";
}

// ---------------------------------------------------------------------------

void PrintOutput(const Output& o) {
  Json j;
  j.Open('{');
  j.Key("workload").Str(o.workload);
  j.Key("attempted").Int(o.attempted);
  j.Key("failed").Int(o.failed);
  j.Key("checks").Open('[');
  for (const Check& c : o.checks) {
    j.Open('{').Key("name").Str(c.name).Key("ok").Bool(c.ok).Key("detail").Str(c.detail).Close('}');
  }
  j.Close(']');
  j.Key("setup_s").NumArray(o.setup_s);
  j.Key("vm_init_ms").NumArray(o.vm_init_ms);
  j.Key("workload_setup_ms").NumArray(o.workload_setup_ms);
  j.Key("batch_s").NumArray(o.batch_s);
  j.Key("reps").Open('[');
  for (const Rep& r : o.reps) {
    j.Open('{');
    j.Key("program_p50_us").Num(r.program_p50_us);
    j.Key("program_p99_us").Num(r.program_p99_us);
    j.Key("program_p999_us").Num(r.program_p999_us);
    j.Key("lateness_us").NumArray(r.lateness_us);
    j.Key("pause_ms").NumArray(r.pause_ms);
    j.Key("pause_total_ms").Num(r.pause_total_ms);
    j.Key("heap_peak_mb").Num(r.heap_peak_mb);
    j.Key("run_s").Num(r.run_s);
    j.Key("not_executed").Int(r.not_executed);
    j.Close('}');
  }
  j.Close(']');
  j.Key("op_latency_us").NumArray(o.op_latency_us);
  j.Key("pause_ms").NumArray(o.pause_ms);
  j.Key("pause_total_ms").Num(o.pause_total_ms);
  j.Key("heap_peak_mb").Num(o.heap_peak_mb);
  j.Key("layers").Open('{');
  for (const auto& [k, v] : o.layers) {
    j.Key(k).Num(v);
  }
  j.Close('}');
  j.Key("config").Open('{');
  for (const auto& [k, v] : o.config) {
    j.Key(k).Str(v);
  }
  j.Key("gc_workers").Int(kGcWorkers);
  j.Key("heap_mb").Int(kHeapMb);
  j.Key("setup_repeats").Int(kSetupRepeats);
  j.Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  j.Key("compiler").Str(PERFBENCH_COMPILER);
  j.Close('}');
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--spans") {
      spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (workload.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <kv-rolp|ingest-rolp|graph-g1|graph-zgc> --seed <n> "
                 "--seconds <s> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  // Seed 0 is a valid benchmark seed; the program's generators want a
  // nonzero, well-mixed seed.
  uint64_t mixed = Mix64(seed + 0x5eed);

  SpanLog spans;
  Output out;
  out.workload = workload;
  if (workload == "kv-rolp") {
    RunKv(mixed, seconds, &spans, &out);
  } else if (workload == "ingest-rolp") {
    RunIngestWorkload(mixed, seconds, &spans, &out);
  } else if (workload == "graph-g1") {
    RunGraph("-XX:GC=g1", mixed, seconds, &spans, &out);
  } else if (workload == "graph-zgc") {
    RunGraph("-XX:GC=zgc", mixed, seconds, &spans, &out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (!spans_path.empty() && !spans.Write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  PrintOutput(out);
  return 0;
}

}  // namespace
}  // namespace rolp

int main(int argc, char** argv) { return rolp::Main(argc, argv); }
