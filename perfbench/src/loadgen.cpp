#include "loadgen.h"

#include <deque>
#include <future>
#include <thread>

#include "codegen/compile.h"

namespace perfbench {

using deflection::PolicySet;
using deflection::Result;
using Response = registry::TenantRouter::Response;

namespace {

constexpr std::size_t kMaxErrors = 5;

bool is_intake_refusal(const std::string& code) {
  return code == "stopped" || code == "unknown_tenant" || code == "draining" ||
         code == "circuit_open" || code == "rate_limited" || code == "quota_exceeded";
}

void note(std::vector<std::string>& errors, const std::string& what) {
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

double ms_since(Clock::time_point t0) { return us_between(t0, Clock::now()) / 1000.0; }

}  // namespace

void ServeTally::record(const Response& response, const Request& request) {
  ++attempted;
  if (!response.is_ok()) {
    if (is_intake_refusal(response.code())) ++refused;
    else ++failed;
    note(errors, "serve failed: [" + response.code() + "] " + response.message());
    return;
  }
  const auto& outputs = response.value();
  if (outputs.size() == 1 &&
      outputs[0] == tiny_service_reference(request.tenant, BytesView(request.payload))) {
    ++ok;
  } else {
    ++wrong;
    note(errors, "tenant " + std::to_string(request.tenant) + ": output differs from reference");
  }
}

ServeTally& ServeTally::operator+=(const ServeTally& other) {
  attempted += other.attempted;
  ok += other.ok;
  wrong += other.wrong;
  failed += other.failed;
  refused += other.refused;
  for (const auto& e : other.errors) note(errors, e);
  return *this;
}

registry::RouterOptions deployment_options() {
  registry::RouterOptions options;
  options.slots = 2;
  options.config.verify.required = PolicySet::p1to5();
  return options;
}

registry::TenantQuota deployment_quota() {
  registry::TenantQuota quota;
  quota.max_pending = std::size_t{1} << 20;
  return quota;
}

void pace_until(Clock::time_point t) {
  // Sleep while the due time is far, spin for the last stretch: sleeping to
  // the due time added ~10 us of wake-up lag to every request (and no
  // steadier tails) on the 4-vCPU development VM.
  for (;;) {
    auto now = Clock::now();
    if (now >= t) return;
    if (t - now > std::chrono::microseconds(300))
      std::this_thread::sleep_for(t - now - std::chrono::microseconds(200));
  }
}

Result<Deployment> set_up(const WorkloadSpec& spec, const AdmitPlan* plan, SetupTimes* times) {
  using R = Result<Deployment>;
  auto t0 = Clock::now();
  Deployment d;
  for (int t = 0; t < spec.tenants; ++t) {
    auto c0 = Clock::now();
    auto built = codegen::compile(tiny_service_source(t), PolicySet::p1to5());
    times->compile_ms.push_back(ms_since(c0));
    if (!built.is_ok()) return R::fail(built.code(), "tiny service: " + built.message());
    d.services.push_back(std::move(built.value().dxo));
    d.ids.push_back("tenant-" + std::to_string(t));
  }
  if (plan != nullptr) {
    for (const auto& spec_b : plan->binaries) {
      auto c0 = Clock::now();
      auto built = build_binary(spec_b);
      times->compile_ms.push_back(ms_since(c0));
      if (!built.is_ok()) return R::fail(built.code(), "stream binary: " + built.message());
      d.stream_digests.push_back(crypto::Sha256::hash(built.value().serialize()));
      d.stream.push_back(built.take());
    }
  }
  auto router = registry::TenantRouter::create(deployment_options());
  if (!router.is_ok()) return R::fail(router.code(), router.message());
  d.router = router.take();
  for (int t = 0; t < spec.tenants; ++t) {
    auto r0 = Clock::now();
    auto admitted = d.router->register_tenant(d.ids[static_cast<std::size_t>(t)],
                                              d.services[static_cast<std::size_t>(t)],
                                              deployment_quota());
    times->register_ms.push_back(ms_since(r0));
    if (!admitted.is_ok()) return R::fail(admitted.code(), admitted.message());
  }
  // Warm-up: every tenant served a few times; with one tenant, until both
  // slots are bound to it (after that no eviction is possible).
  RequestStream warm(spec, 0x3A3A);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<Request, std::future<Response>>> pending;
    for (int t = 0; t < spec.tenants; ++t)
      for (int i = 0; i < (spec.tenants == 1 ? 16 : 2); ++i) {
        Request r = warm.next();
        r.tenant = t;
        auto f = d.router->submit_async(d.ids[static_cast<std::size_t>(t)],
                                        BytesView(r.payload));
        pending.emplace_back(std::move(r), std::move(f));
      }
    ServeTally tally;
    for (auto& [r, f] : pending) tally.record(f.get(), r);
    if (tally.ok != tally.attempted)
      return R::fail("warm_up", tally.errors.empty() ? "wrong output" : tally.errors[0]);
    if (spec.tenants > 1 || d.router->scheduler().bound_slot_count(d.ids[0]) == 2) {
      times->seconds = us_between(t0, Clock::now()) / 1e6;
      return d;
    }
  }
  return R::fail("warm_up", "could not bind both slots to the tenant");
}

OpenLoopResult run_open_loop(Deployment& d, const ServeSchedule& schedule,
                             Clock::time_point start) {
  const std::size_t n = schedule.requests.size();
  OpenLoopResult out;
  out.latency_us.resize(n);
  out.lag_us.resize(n);
  std::vector<std::future<Response>> futures(n);
  std::vector<std::size_t> outstanding;
  auto due = [&](std::size_t i) { return start + std::chrono::nanoseconds(schedule.due_ns[i]); };
  // One thread sends at each due time and, in between, polls the outstanding
  // responses. A blocked receiver would add its own wake-up to every latency,
  // and on a shared VM that wake-up varied more from run to run than the
  // request itself.
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    if (next < n && Clock::now() >= due(next)) {
      out.lag_us[next] = us_between(due(next), Clock::now());
      const Request& r = schedule.requests[next];
      futures[next] = d.router->submit_async(d.ids[static_cast<std::size_t>(r.tenant)],
                                             BytesView(r.payload));
      outstanding.push_back(next++);
      continue;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      out.latency_us[i] = us_between(due(i), Clock::now());
      out.tally.record(futures[i].get(), schedule.requests[i]);
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    if (outstanding.empty() && next < n) pace_until(due(next));
  }
  return out;
}

SaturationResult run_saturation(Deployment& d, RequestStream requests, double seconds) {
  constexpr int kWindows = 10;
  SaturationResult out;
  std::vector<int> completions(kWindows, 0);
  std::deque<std::pair<Request, std::future<Response>>> window;
  auto submit = [&] {
    Request r = requests.next();
    auto f = d.router->submit_async(d.ids[static_cast<std::size_t>(r.tenant)],
                                    BytesView(r.payload));
    window.emplace_back(std::move(r), std::move(f));
  };
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (int i = 0; i < kSaturationWindow; ++i) submit();
  while (!window.empty()) {
    auto [r, f] = std::move(window.front());
    window.pop_front();
    Response response = f.get();
    auto now = Clock::now();
    out.tally.record(response, r);
    if (now < end) {
      auto w = static_cast<std::size_t>((now - start) * kWindows / (end - start));
      ++completions[w];
      submit();
    }
  }
  const double window_s = seconds / kWindows;
  for (int c : completions) out.window_rps.push_back(c / window_s);
  return out;
}

AdmitStreamResult run_admit_stream(Deployment& d, const AdmitPlan& plan,
                                   Clock::time_point start) {
  AdmitStreamResult out;
  for (std::size_t i = 0; i < plan.registrations.size(); ++i) {
    const Registration& reg = plan.registrations[i];
    const auto b = static_cast<std::size_t>(reg.binary);
    auto due = start + std::chrono::nanoseconds(reg.due_ns);
    pace_until(due);
    const std::string id = "provider-" + std::to_string(i);
    auto admitted = d.router->register_tenant(id, d.stream[b], deployment_quota());
    out.latency_ms.push_back(us_between(due, Clock::now()) / 1000.0);
    out.kinds.push_back(reg.kind);
    ++out.attempted;
    const std::string what = id + " (" + admit_kind_name(reg.kind) + ")";
    if (admit_expected(reg.kind)) {
      if (!admitted.is_ok()) {
        ++out.wrong;
        note(out.errors, what + " refused: [" + admitted.code() + "] " + admitted.message());
      } else if (admitted.value() != d.stream_digests[b]) {
        ++out.wrong;
        note(out.errors, what + " admitted under the wrong digest");
      }
    } else if (admitted.is_ok()) {
      ++out.wrong;
      note(out.errors, what + " admitted a non-compliant binary");
    } else if (!is_verifier_rejection(admitted.code())) {
      ++out.wrong;
      note(out.errors, what + " refused with a non-verifier code: " + admitted.code());
    }
    if (admitted.is_ok()) {
      auto u0 = Clock::now();
      deflection::Status gone = d.router->unregister_tenant(id);
      out.unregister_us.push_back(us_between(u0, Clock::now()));
      if (!gone.is_ok()) {
        ++out.wrong;
        note(out.errors, what + " unregister failed: " + gone.message());
      }
    }
  }
  return out;
}

std::vector<double> tear_down(Deployment& d) {
  std::vector<double> us;
  for (const auto& id : d.ids) {
    auto u0 = Clock::now();
    (void)d.router->unregister_tenant(id);
    us.push_back(us_between(u0, Clock::now()));
  }
  return us;
}

std::uint64_t router_refusals(const registry::RouterStats& stats) {
  std::uint64_t n = 0;
  for (const auto& [id, t] : stats.tenants)
    n += t.rejected_quota + t.rejected_rate + t.rejected_breaker;
  return n;
}

}  // namespace perfbench
