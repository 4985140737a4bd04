// The traced run: replays a workload's generated inputs one public call at a
// time through the layers beneath the router (registry -> core -> crypto /
// verifier / vm), timing every call from outside.
//
// Two stacks see the same inputs, call for call:
//  - the real registry objects (TenantRegistry::admit, EnclaveSlotScheduler
//    acquire/serve), timed whole and untraced;
//  - a mirror that re-enacts TenantRegistry::admit, the slot (re)bind of
//    ServiceWorker::provision and ServiceWorker::serve step by step through
//    public calls, under one parent span per composite (admit, rebind,
//    serve). Each span carries a name, start, end, parent and request id;
//    spans are kept in memory and written out when the replay ends.
// A span's self time is its duration minus the time its children cover.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "loadgen.h"

namespace perfbench {

struct ReplayInputs {
  const Deployment* deployment = nullptr;  // binaries (its router is not used)
  const AdmitPlan* plan = nullptr;         // admit_stream registrations
  const ServeSchedule* schedule = nullptr; // requests, replayed in order
  double seconds = 1;                      // time budget
  std::string trace_out;                   // span dump (CSV); empty = none
};

// Mean self time per replayed request of one span name inside the request
// trees. `branch` is the composite directly under the request root that the
// span sits in ("acquire" or "serve"; "request" for the root itself).
struct SelfTime {
  std::string name;
  std::string branch;
  double us = 0;
};

struct ReplayResult {
  std::map<std::string, double> values;  // per-layer metric name -> value
  // In first-seen order; their sum is the mean traced request time.
  std::vector<SelfTime> request_self_us;
  double traced_serve_us = 0;  // median traced serve composite
  std::uint64_t requests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

ReplayResult replay(const ReplayInputs& in);

}  // namespace perfbench
