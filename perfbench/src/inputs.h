// Seeded inputs of the serving + admission benchmark.
//
// Everything the program under test receives is generated here from
// (workload, seed): service binaries, request payloads, the open-loop arrival
// schedule and the registration mix. The same pair always yields the same
// inputs, and the host-side oracles below give the answer each input must
// produce.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codegen/dxo.h"
#include "support/bytes.h"
#include "support/result.h"
#include "support/rng.h"

namespace perfbench {

using deflection::Bytes;
using deflection::BytesView;

enum class Workload { WarmOneTenant, ChurnTenants, AdmitStream };
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

// The fixed deployment and load of one workload. Rates are absolute: a faster
// program sees the same offered load as its parent, so latency stays
// comparable across commits.
struct WorkloadSpec {
  int tenants = 1;        // serving tenants registered in set-up
  bool zipf = false;      // tenant per request drawn Zipf(s=1); else tenant 0
  double serve_rps = 0;   // open-loop Poisson arrival rate of serve requests
  double admit_rps = 0;   // open-loop registration rate (admit_stream only)
  int setup_reps = 1;     // set-ups per round; setup_s is their median
};
const WorkloadSpec& workload_spec(Workload workload);

// Requests outstanding in the closed-loop saturation phase.
constexpr int kSaturationWindow = 8;

// The registry bench's tiny service (reads <= 64 B, sums the squares of the
// bytes, sends the sum modulo 251 - tenant as 8 bytes). The per-tenant
// modulus makes every tenant's binary distinct.
std::string tiny_service_source(int tenant);
// Host-side reference of the service's one output frame.
Bytes tiny_service_reference(int tenant, BytesView payload);

struct Request {
  int tenant = 0;
  Bytes payload;  // 1-64 bytes
};

// Seeded request contents: tenant choice and payload, one request at a time.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed);
  Request next();

 private:
  deflection::Rng rng_;
  std::vector<double> cdf_;  // Zipf CDF over tenants (empty: always tenant 0)
};

// Open-loop schedule: Poisson due times (ns from the phase start) and the
// request sent at each.
struct ServeSchedule {
  std::vector<std::int64_t> due_ns;
  std::vector<Request> requests;
};
ServeSchedule make_serve_schedule(const WorkloadSpec& spec, std::uint64_t seed,
                                  double rps, double seconds);

// --- admission stream ---

enum class AdmitKind : std::uint8_t {
  Cold,        // new compliant binary: full verification
  Warm,        // earlier compliant binary under a new id: warm_probe hit
  UnderClaim,  // honest P1-only claim: rejected for not covering P1-P5
  OverClaim,   // P1 code claiming P1-P5: rejected deep in the verifier
};
const char* admit_kind_name(AdmitKind kind);
bool admit_expected(AdmitKind kind);
// A non-compliant binary must be refused with a verifier code, never with
// an infrastructure one.
bool is_verifier_rejection(const std::string& code);

// One binary of the stream: which of the 15 workload sources (ten nBench
// kernels, five macro services), its ${PARAM} values, policies and -O level.
struct BinarySpec {
  int source = 0;
  std::map<std::string, std::string> params;
  bool p6 = false;
  int opt_level = 0;
  AdmitKind kind = AdmitKind::Cold;  // Cold, UnderClaim or OverClaim
};

struct Registration {
  std::int64_t due_ns = 0;  // from the phase start
  AdmitKind kind = AdmitKind::Cold;
  int binary = 0;           // index into AdmitPlan::binaries
};

struct AdmitPlan {
  std::vector<BinarySpec> binaries;  // each presented once, except Warm re-uses
  std::vector<Registration> registrations;
};
AdmitPlan make_admit_plan(std::uint64_t seed, double rps, double seconds);

// Compiles one stream binary (an OverClaim binary gets its lying mask here).
deflection::Result<deflection::codegen::Dxo> build_binary(const BinarySpec& spec);

}  // namespace perfbench
