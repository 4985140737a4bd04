// servebench: the open-loop serving + admission benchmark.
//
//   servebench --workload <warm_one_tenant|churn_tenants|admit_stream>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures one round of the end-to-end metrics with tracing off:
// set-up, then an open-loop phase (60% of --seconds) and a closed-loop
// saturation phase (the remaining 40%); admit_stream registers tenants
// throughout both.
// --trace 1 runs the same deployment untraced for half of --seconds, then
// replays the same inputs through the layers beneath (replay.h) for the
// other half, and reports the per-layer metrics.
//
// Human-readable lines go first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any oracle mismatch or
// failed self-check makes `correct` false and the exit code 1.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "inputs.h"
#include "loadgen.h"
#include "replay.h"
#include "stats.h"

using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::WarmOneTenant;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      auto w = parse_workload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && argc % 2 == 1;
}

// What one run reports: its metrics, its attempt/failure counts, and every
// oracle mismatch or failed self-check.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    std::printf("selfcheck %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) problems.push_back(what);
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string eq(const char* what, std::uint64_t a, std::uint64_t b) {
  return std::string(what) + " (" + std::to_string(a) + " vs " + std::to_string(b) + ")";
}

// One measured window of a deployment: the open-loop phase, then the
// saturation phase; admit_stream's registration stream runs across both.
struct Window {
  OpenLoopResult open;
  SaturationResult sat;
  AdmitStreamResult admit;
  registry::RouterStats before, after;
};

Window run_window(Workload w, Deployment& d, const ServeSchedule& schedule,
                  const AdmitPlan& plan, std::uint64_t seed, double open_s, double sat_s) {
  const WorkloadSpec& spec = workload_spec(w);
  Window win;
  win.before = d.router->stats();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::thread registrar;
  if (w == Workload::AdmitStream)
    registrar = std::thread([&] { win.admit = run_admit_stream(d, plan, start); });
  win.open = run_open_loop(d, schedule, start);
  pace_until(start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(open_s)));
  win.sat = run_saturation(d, RequestStream(spec, seed ^ 0x5A7'0003ull), sat_s);
  if (registrar.joinable()) registrar.join();
  win.after = d.router->stats();
  return win;
}

// Conservation self-checks over one window.
void check_window(Workload w, const Deployment& d, const Window& win, const AdmitPlan& plan,
                  Outcome* out) {
  ServeTally tally = win.open.tally;
  tally += win.sat.tally;
  const auto& a = win.after;
  const auto& b = win.before;
  out->check(tally.attempted == tally.ok + tally.wrong + tally.failed + tally.refused,
             eq("client attempted = succeeded + failed + refused", tally.attempted,
                tally.ok + tally.wrong + tally.failed + tally.refused));
  out->check(a.requests_served - b.requests_served == tally.ok + tally.wrong,
             eq("RouterStats served = client answered", a.requests_served - b.requests_served,
                tally.ok + tally.wrong));
  out->check(a.requests_failed - b.requests_failed == tally.failed,
             eq("RouterStats failed = client failed", a.requests_failed - b.requests_failed,
                tally.failed));
  out->check(router_refusals(a) - router_refusals(b) == tally.refused,
             eq("RouterStats refusals = client refused",
                router_refusals(a) - router_refusals(b), tally.refused));
  out->check(tally.ok == tally.attempted,
             eq("every response equals the host-side reference", tally.ok, tally.attempted));
  for (const auto& e : tally.errors) std::printf("  error: %s\n", e.c_str());
  if (w == Workload::AdmitStream) {
    std::set<crypto::Digest> presented;
    for (const auto& s : d.services) presented.insert(crypto::Sha256::hash(s.serialize()));
    for (std::size_t i = 0; i < win.admit.kinds.size(); ++i)
      presented.insert(d.stream_digests[static_cast<std::size_t>(plan.registrations[i].binary)]);
    out->check(a.cache.misses == presented.size(),
               eq("full verifications = distinct binaries presented", a.cache.misses,
                  presented.size()));
    out->check(win.admit.wrong == 0,
               eq("every verdict matches its known answer", win.admit.attempted - win.admit.wrong,
                  win.admit.attempted));
    for (const auto& e : win.admit.errors) std::printf("  error: %s\n", e.c_str());
    out->check(d.router->registry().size() == d.ids.size(),
               eq("no residual tenants after the stream", d.router->registry().size(),
                  d.ids.size()));
  } else {
    out->check(a.cache.misses == b.cache.misses,
               eq("no full verification in the measured phase", a.cache.misses - b.cache.misses,
                  0));
  }
  if (w == Workload::WarmOneTenant)
    out->check(a.scheduler.binds == b.scheduler.binds,
               eq("no rebind after warm-up", a.scheduler.binds - b.scheduler.binds, 0));
}

void count_attempts(const Window& win, Outcome* out) {
  ServeTally tally = win.open.tally;
  tally += win.sat.tally;
  out->attempted += tally.attempted + win.admit.attempted;
  out->failed += tally.failed + tally.wrong + tally.refused + win.admit.wrong;
}

// Serve-latency windows: up to ten slices, each holding at least 1000
// samples, so every slice's p99 has ten samples beyond it.
std::size_t latency_windows(std::size_t samples) {
  return std::max<std::size_t>(1, std::min<std::size_t>(10, samples / 1000));
}

// One round: set-up, then one measured window. perfbench/run.py runs several
// rounds, each in a fresh process, and combines their figures.
Outcome run_end_to_end(const Args& args) {
  Outcome out;
  const WorkloadSpec& spec = workload_spec(args.workload);
  const double open_s = 0.6 * args.seconds, sat_s = 0.4 * args.seconds;
  const bool admit = args.workload == Workload::AdmitStream;
  AdmitPlan plan;
  if (admit) plan = make_admit_plan(args.seed, spec.admit_rps, args.seconds);
  ServeSchedule schedule = make_serve_schedule(spec, args.seed, spec.serve_rps, open_s);

  std::vector<double> setup_s, register_ms;
  Deployment d;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    d = Deployment{};  // the previous set-up is torn down first
    SetupTimes times;
    auto dep = set_up(spec, admit ? &plan : nullptr, &times);
    if (!dep.is_ok()) {
      out.check(false, "set-up: [" + dep.code() + "] " + dep.message());
      return out;
    }
    d = dep.take();
    setup_s.push_back(times.seconds);
    register_ms.insert(register_ms.end(), times.register_ms.begin(), times.register_ms.end());
  }

  Window win = run_window(args.workload, d, schedule, plan, args.seed, open_s, sat_s);
  check_window(args.workload, d, win, plan, &out);
  count_attempts(win, &out);
  (void)tear_down(d);

  const auto& lat = win.open.latency_us;
  const auto& admit_ms = admit ? win.admit.latency_ms : register_ms;
  std::printf("samples: %zu serve latencies, %zu registrations, %zu set-ups\n", lat.size(),
              admit_ms.size(), setup_s.size());
  // Where a round's figures came from: a stall of the shared machine shows
  // as generator lag and as one slow tenth.
  std::printf("generator lag p50 %.1f us, p99 %.1f us\nsaturation req/s per tenth:",
              percentile(win.open.lag_us, 50), percentile(win.open.lag_us, 99));
  for (double r : win.sat.window_rps) std::printf(" %.0f", r);
  std::printf("\n");
  // Tails are printed but not reported: on a shared 4-vCPU VM their spread
  // between quartiles over ten seeds reached 1.0x (p90) and 1.5x (p99) of
  // the median, beyond any bound a regression gate could use.
  const std::size_t windows = latency_windows(lat.size());
  for (int p : {90, 99})
    std::printf("metric serve_p%d_us = %.6g us (not gated)\n", p,
                windowed_percentile(lat, p, windows));
  out.add("setup_s", median(setup_s), "s");
  out.add("serve_p50_us", percentile(lat, 50), "us");
  out.add("serve_max_rps", median(win.sat.window_rps), "req/s");
  out.add("admit_p50_ms", percentile(admit_ms, 50), "ms");
  out.add("admit_p95_ms", percentile(admit_ms, 95), "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("metric fail_ratio = %.6g ratio (%llu of %llu)\n",
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  return out;
}

Outcome run_traced(const Args& args) {
  Outcome out;
  const WorkloadSpec& spec = workload_spec(args.workload);
  const double half = args.seconds / 2;
  const double open_s = 0.6 * half, sat_s = 0.4 * half;
  const bool admit = args.workload == Workload::AdmitStream;
  // The same generators as the untraced run, over half the time: the
  // inputs are a prefix of that run's inputs.
  AdmitPlan plan;
  if (admit) plan = make_admit_plan(args.seed, spec.admit_rps, half);
  ServeSchedule schedule = make_serve_schedule(spec, args.seed, spec.serve_rps, open_s);

  SetupTimes times;
  auto dep = set_up(spec, admit ? &plan : nullptr, &times);
  if (!dep.is_ok()) {
    out.check(false, "set-up: [" + dep.code() + "] " + dep.message());
    return out;
  }
  Deployment d = dep.take();
  Window win = run_window(args.workload, d, schedule, plan, args.seed, open_s, sat_s);
  check_window(args.workload, d, win, plan, &out);
  count_attempts(win, &out);
  std::vector<double> unregister_us = admit ? win.admit.unregister_us : tear_down(d);
  if (admit) (void)tear_down(d);

  ReplayInputs in;
  in.deployment = &d;
  in.plan = admit ? &plan : nullptr;
  in.schedule = &schedule;
  in.seconds = half;
  in.trace_out = args.trace_out;
  ReplayResult rep = replay(in);
  out.attempted += rep.attempted;
  out.failed += rep.failed;
  for (const auto& p : rep.problems) out.check(false, "replay: " + p);

  const double serve_p50 = percentile(win.open.latency_us, 50);
  const double core_serve = rep.values["core.serve_us"];
  const double dispatch = serve_p50 - core_serve;
  const auto& a = win.after;
  const auto& b = win.before;
  const double served = static_cast<double>(a.requests_served - b.requests_served);
  const double lookups = static_cast<double>(a.cache.hits + a.cache.misses);

  // Breakdown: per-request self times plus dispatch against serve_p50_us.
  double self_sum = 0, serve_self_sum = 0;
  for (const auto& s : rep.request_self_us) {
    self_sum += s.us;
    if (s.branch == "serve") serve_self_sum += s.us;
  }
  std::printf("breakdown %s: serve_p50_us = %.2f (untraced, %zu samples; %llu requests replayed)\n",
              workload_name(args.workload), serve_p50, win.open.latency_us.size(),
              static_cast<unsigned long long>(rep.requests));
  std::printf("  %-24s %10.2f us  (serve_p50_us - core.serve_us)\n", "registry.dispatch_us",
              dispatch);
  for (const auto& s : rep.request_self_us)
    std::printf("  %-24s %10.2f us  %5.1f%%  self, mean per request (under %s)\n",
                s.name.c_str(), s.us, self_sum > 0 ? 100 * s.us / self_sum : 0.0,
                s.branch.c_str());
  std::printf("  per-request traced time %.2f us (serve tree %.2f us, acquire tree %.2f us)\n",
              self_sum, serve_self_sum, self_sum - serve_self_sum);
  const double remainder = serve_p50 - dispatch - serve_self_sum;
  const double overhead = rep.traced_serve_us - core_serve;
  std::printf("  unattributed remainder %.2f us (serve_p50_us - dispatch - serve-tree self times)\n",
              remainder);
  std::printf("  tracing overhead %.2f us (traced serve %.2f - untraced core.serve_us %.2f)\n",
              overhead, rep.traced_serve_us, core_serve);

  out.add("loadgen.lag_p99_us", percentile(win.open.lag_us, 99), "us");
  out.add("registry.dispatch_us", dispatch, "us");
  out.add("registry.refused", static_cast<double>(router_refusals(a) - router_refusals(b)),
          "count");
  out.add("registry.acquire_warm_us", rep.values["registry.acquire_warm_us"], "us");
  out.add("registry.rebind_ms", rep.values["registry.rebind_ms"], "ms");
  out.add("registry.rebinds_per_req",
          served > 0 ? static_cast<double>(a.scheduler.binds - b.scheduler.binds) / served : 0,
          "ratio");
  out.add("registry.admit_cold_ms", rep.values["registry.admit_cold_ms"], "ms");
  out.add("registry.admit_warm_ms", rep.values["registry.admit_warm_ms"], "ms");
  out.add("registry.admit_reject_ms", rep.values["registry.admit_reject_ms"], "ms");
  out.add("registry.unregister_us", median(unregister_us), "us");
  out.add("core.serve_us", core_serve, "us");
  for (const char* name :
       {"core.receive_userdata_us", "core.ecall_run_us", "core.reset_ms", "core.handshake_us",
        "core.deliver_us", "core.prepare_hit_us", "core.prepare_cold_ms",
        "crypto.seal_input_us", "crypto.open_output_us", "crypto.aead_seal_1k_us"}) {
    std::string n = name;
    out.add(n, rep.values[n], n.substr(n.rfind('_') + 1));
  }
  out.add("crypto.output_frames_per_req", rep.values["crypto.output_frames_per_req"], "count");
  for (const char* name : {"crypto.seal_binary_us", "verifier.load_us", "verifier.verify_ms",
                           "verifier.reject_ms", "verifier.rewrite_us"}) {
    std::string n = name;
    out.add(n, rep.values[n], n.substr(n.rfind('_') + 1));
  }
  out.add("verifier.full_verifications", static_cast<double>(a.cache.misses), "count");
  out.add("verifier.cache_hit_ratio", lookups > 0 ? a.cache.hits / lookups : 0, "ratio");
  out.add("vm.instructions_per_req", rep.values["vm.instructions_per_req"], "count");
  out.add("vm.cost_per_req", rep.values["vm.cost_per_req"], "count");
  out.add("codegen.compile_ms", median(times.compile_ms), "ms");
  out.add("trace.overhead_us", overhead, "us");
  out.add("trace.remainder_us", remainder, "us");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena that never returns memory to the kernel and never
  // switches a size class between mmap and the heap. Under glibc's adaptive
  // defaults each slot reset's ~31 MiB of zeroed enclave memory is either
  // recycled or freshly faulted in, depending on allocation history and
  // thread timing, which makes rebind cost bimodal (2x and more) from run to
  // run of the same commit.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <warm_one_tenant|churn_tenants|admit_stream> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  Outcome out = args.trace ? run_traced(args) : run_end_to_end(args);
  for (const auto& m : out.metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = out.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out.metrics[i].name.c_str(), out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
