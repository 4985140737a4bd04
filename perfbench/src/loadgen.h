// The deployment under test and the load generator that drives it.
//
// Deployment: one registry::TenantRouter with 2 slots (2 serving threads),
// required policy P1-P5, and defaults everywhere else (verify.workers = 1,
// no FaultPlan, no blur, no retry or breaker). Tenants get a deep request
// queue so that open-loop queueing shows as latency, never as refusals.
//
// Load comes from this process, from at most two threads at a time:
//  - open loop: one thread paces submit_async to the Poisson schedule and
//    polls the outstanding futures between sends; latency runs from the due
//    time;
//  - saturation: one thread keeps kSaturationWindow requests outstanding;
//  - admission (admit_stream): registers tenants at their due times and
//    unregisters each right after its verdict.
// Every response is checked byte for byte against the host-side reference,
// every registration against its known verdict.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "registry/router.h"
#include "stats.h"

namespace perfbench {

namespace registry = deflection::registry;
namespace codegen = deflection::codegen;
namespace crypto = deflection::crypto;

// Client-side tally of serve outcomes.
struct ServeTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;       // answered with the reference output
  std::uint64_t wrong = 0;    // answered, but not with the reference output
  std::uint64_t failed = 0;   // answered with an error
  std::uint64_t refused = 0;  // refused at intake
  std::vector<std::string> errors;  // first few failure descriptions

  void record(const registry::TenantRouter::Response& response, const Request& request);
  ServeTally& operator+=(const ServeTally& other);
};

struct Deployment {
  std::unique_ptr<registry::TenantRouter> router;
  std::vector<std::string> ids;              // serving tenant ids, by tenant number
  std::vector<codegen::Dxo> services;        // their binaries
  std::vector<codegen::Dxo> stream;          // admit_stream binaries (plan order)
  std::vector<crypto::Digest> stream_digests;
};

// Timings of one set-up: MiniC compiles, router creation, registrations and
// warm-up together make `seconds`.
struct SetupTimes {
  double seconds = 0;
  std::vector<double> compile_ms;   // per compiled binary
  std::vector<double> register_ms;  // per set-up registration
};

registry::RouterOptions deployment_options();
registry::TenantQuota deployment_quota();

// Builds a deployment: compiles every binary, creates the router, registers
// the serving tenants and warms the slots (on one tenant, until both slots
// are bound to it).
deflection::Result<Deployment> set_up(const WorkloadSpec& spec, const AdmitPlan* plan,
                                      SetupTimes* times);

struct OpenLoopResult {
  std::vector<double> latency_us;  // from due time, in send order
  std::vector<double> lag_us;      // send time - due time
  ServeTally tally;
};
// One thread sends and polls for responses; `start` is the schedule's time
// zero.
OpenLoopResult run_open_loop(Deployment& d, const ServeSchedule& schedule, Clock::time_point start);

struct SaturationResult {
  std::vector<double> window_rps;  // completions per second in each tenth of the phase
  ServeTally tally;
};
SaturationResult run_saturation(Deployment& d, RequestStream requests, double seconds);

struct AdmitStreamResult {
  std::vector<double> latency_ms;        // register_tenant, from due time
  std::vector<double> unregister_us;
  std::vector<AdmitKind> kinds;          // per registration
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;               // wrong verdicts and unexpected errors
  std::vector<std::string> errors;
};
AdmitStreamResult run_admit_stream(Deployment& d, const AdmitPlan& plan, Clock::time_point start);

// Unregisters every serving tenant, timing each drain.
std::vector<double> tear_down(Deployment& d);

// Sums of the router's intake refusals (quota, rate, breaker) over tenants.
std::uint64_t router_refusals(const registry::RouterStats& stats);

// Sleeps, then spins, until `t`.
void pace_until(Clock::time_point t);

}  // namespace perfbench
