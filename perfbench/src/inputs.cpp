#include "inputs.h"

#include <cmath>
#include <set>

#include "codegen/compile.h"
#include "workloads/workloads.h"

namespace perfbench {

using deflection::PolicySet;
using deflection::Rng;

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::WarmOneTenant, Workload::ChurnTenants, Workload::AdmitStream})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::WarmOneTenant: return "warm_one_tenant";
    case Workload::ChurnTenants: return "churn_tenants";
    case Workload::AdmitStream: return "admit_stream";
  }
  return "?";
}

const WorkloadSpec& workload_spec(Workload workload) {
  static const WorkloadSpec warm{.tenants = 1, .zipf = false, .serve_rps = 8000,
                                 .admit_rps = 0, .setup_reps = 6};
  static const WorkloadSpec churn{.tenants = 8, .zipf = true, .serve_rps = 150,
                                  .admit_rps = 0, .setup_reps = 2};
  static const WorkloadSpec admit{.tenants = 1, .zipf = false, .serve_rps = 500,
                                  .admit_rps = 25, .setup_reps = 1};
  switch (workload) {
    case Workload::WarmOneTenant: return warm;
    case Workload::ChurnTenants: return churn;
    case Workload::AdmitStream: return admit;
  }
  return warm;
}

std::string tiny_service_source(int tenant) {
  return R"(
  int main() {
    byte* buf = alloc(64);
    int n = ocall_recv(buf, 64);
    if (n < 1) { return 1; }
    int acc = 0;
    for (int i = 0; i < n; i += 1) { acc += buf[i] * buf[i]; }
    int v = acc % )" + std::to_string(251 - tenant) + R"(;
    byte* out = alloc(8);
    for (int i = 0; i < 8; i += 1) { out[i] = (v >> (i * 8)) & 255; }
    ocall_send(out, 8);
    return 0;
  }
)";
}

Bytes tiny_service_reference(int tenant, BytesView payload) {
  std::uint64_t acc = 0;
  for (std::uint8_t b : payload) acc += static_cast<std::uint64_t>(b) * b;
  std::uint64_t v = acc % static_cast<std::uint64_t>(251 - tenant);
  Bytes out(8);
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = (v >> (i * 8)) & 255;
  return out;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed) : rng_(seed) {
  if (!spec.zipf) return;
  double total = 0;
  for (int k = 0; k < spec.tenants; ++k) total += 1.0 / (k + 1);
  double acc = 0;
  for (int k = 0; k < spec.tenants; ++k) {
    acc += 1.0 / (k + 1) / total;
    cdf_.push_back(acc);
  }
}

Request RequestStream::next() {
  Request r;
  if (!cdf_.empty()) {
    double u = rng_.uniform();
    while (r.tenant + 1 < static_cast<int>(cdf_.size()) &&
           u >= cdf_[static_cast<std::size_t>(r.tenant)])
      ++r.tenant;
  }
  r.payload.resize(1 + rng_.below(64));
  for (auto& b : r.payload) b = static_cast<std::uint8_t>(rng_.next() >> 56);
  return r;
}

namespace {

// Exponential inter-arrival gap in ns for a Poisson process of `rps`.
std::int64_t poisson_gap_ns(Rng& rng, double rps) {
  return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) / rps * 1e9);
}

}  // namespace

ServeSchedule make_serve_schedule(const WorkloadSpec& spec, std::uint64_t seed, double rps,
                                  double seconds) {
  ServeSchedule s;
  Rng arrivals(seed ^ 0xA55A'0001ull);
  RequestStream contents(spec, seed ^ 0xA55A'0002ull);
  const auto end = static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = poisson_gap_ns(arrivals, rps); t < end;
       t += poisson_gap_ns(arrivals, rps)) {
    s.due_ns.push_back(t);
    s.requests.push_back(contents.next());
  }
  return s;
}

const char* admit_kind_name(AdmitKind kind) {
  switch (kind) {
    case AdmitKind::Cold: return "cold";
    case AdmitKind::Warm: return "warm";
    case AdmitKind::UnderClaim: return "under_claim";
    case AdmitKind::OverClaim: return "over_claim";
  }
  return "?";
}

bool admit_expected(AdmitKind kind) {
  return kind == AdmitKind::Cold || kind == AdmitKind::Warm;
}

bool is_verifier_rejection(const std::string& code) {
  return code == "policy_uncovered" || code.rfind("verify_", 0) == 0;
}

namespace {

constexpr int kMacroSources = 5;

int source_count() {
  return static_cast<int>(deflection::workloads::nbench_kernels().size()) + kMacroSources;
}

std::string source_text(int source) {
  namespace wl = deflection::workloads;
  const auto& kernels = wl::nbench_kernels();
  if (source < static_cast<int>(kernels.size()))
    return kernels[static_cast<std::size_t>(source)].source;
  switch (source - static_cast<int>(kernels.size())) {
    case 0: return wl::needleman_wunsch_source();
    case 1: return wl::sequence_generation_source();
    case 2: return wl::credit_scoring_source();
    case 3: return wl::https_handler_source();
    default: return wl::image_editing_source();
  }
}

// Draws ${PARAM} values: nBench parameters between their test and bench
// settings, macro parameters over ranges the services accept.
std::map<std::string, std::string> draw_params(Rng& rng, int source) {
  const auto& kernels = deflection::workloads::nbench_kernels();
  std::map<std::string, std::string> params;
  auto put = [&](const std::string& key, std::int64_t lo, std::int64_t hi) {
    params[key] = std::to_string(rng.range(lo, hi));
  };
  if (source < static_cast<int>(kernels.size())) {
    const auto& k = kernels[static_cast<std::size_t>(source)];
    for (const auto& [key, test_value] : k.test_params)
      put(key, std::stoll(test_value), std::stoll(k.bench_params.at(key)));
    return params;
  }
  switch (source - static_cast<int>(kernels.size())) {
    case 0: put("BUFCAP", 1024, 8192); break;
    case 1: break;  // sequence generation has no parameters
    case 2: put("TRAIN", 40, 400); put("EPOCHS", 2, 20); break;
    case 3: put("CONTENT", 256, 4096); put("MAXRESP", 256, 65536); break;
    default: put("BUFCAP", 4096, 16384); break;
  }
  return params;
}

std::string binary_key(const BinarySpec& b) {
  std::string key = std::to_string(b.source) + "/" + std::to_string(b.p6) + "/" +
                    std::to_string(b.opt_level) + "/" + admit_kind_name(b.kind);
  for (const auto& [k, v] : b.params) key += "/" + k + "=" + v;
  return key;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

// Deals 0..n-1 in seeded order, reshuffling after each full pass, so every
// run presents each value equally often whatever its seed.
class Deck {
 public:
  Deck(int n, Rng& rng) : rng_(rng) {
    for (int i = 0; i < n; ++i) cards_.push_back(i);
  }
  int deal() {
    if (next_ == 0) shuffle(cards_, rng_);
    int card = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return card;
  }

 private:
  Rng& rng_;
  std::vector<int> cards_;
  std::size_t next_ = 0;
};

}  // namespace

AdmitPlan make_admit_plan(std::uint64_t seed, double rps, double seconds) {
  AdmitPlan plan;
  Rng rng(seed ^ 0xAD317'0001ull);
  Rng arrivals(seed ^ 0xAD317'0002ull);
  std::set<std::string> seen;
  std::vector<int> compliant;  // binaries a Warm registration may re-present
  // The seed orders the stream and draws ${PARAM}s; the mix itself is fixed.
  // Every block of 20 registrations holds 12 Cold, 5 Warm and 3 rejected,
  // and binaries deal from decks of (source, -O, P6) and (source, -O, kind),
  // so the cost of the stream's tail does not depend on the seed.
  const int sources = source_count();
  Deck cold_deck(sources * 4, rng), reject_deck(sources * 4, rng);
  // A binary never presented before: deal until the (source, params,
  // policies, -O) tuple is new, so every Cold/UnderClaim/OverClaim
  // registration is a distinct binary.
  auto fresh = [&](Deck& deck, bool reject) {
    BinarySpec b;
    for (;;) {
      const int card = deck.deal();
      b.source = card % sources;
      b.params = draw_params(rng, b.source);
      b.opt_level = card / sources % 2 ? 2 : 0;
      b.p6 = !reject && card / sources / 2 == 1;
      b.kind = !reject ? AdmitKind::Cold
               : card / sources / 2 == 1 ? AdmitKind::OverClaim
                                         : AdmitKind::UnderClaim;
      if (seen.insert(binary_key(b)).second) break;
    }
    plan.binaries.push_back(std::move(b));
    return static_cast<int>(plan.binaries.size()) - 1;
  };
  // Registrations arrive at the fixed rate with +-40% jitter rather than
  // Poisson: the shortest gap (24 ms at 25/s) is several times a cold
  // verification, so a registration queues behind the one before only when
  // admission slows down that much. With Poisson gaps about 10% of them
  // queued, and the few queued ones that happened to come together set the
  // p95 of a round.
  auto gap_ns = [&] {
    return static_cast<std::int64_t>((0.6 + 0.8 * arrivals.uniform()) / rps * 1e9);
  };
  std::vector<AdmitKind> block;
  const auto end = static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = gap_ns(); t < end; t += gap_ns()) {
    if (block.empty()) {
      block.assign(12, AdmitKind::Cold);
      block.insert(block.end(), 5, AdmitKind::Warm);
      block.insert(block.end(), 3, AdmitKind::UnderClaim);  // either rejection
      shuffle(block, rng);
    }
    const AdmitKind kind = block.back();
    block.pop_back();
    Registration r;
    r.due_ns = t;
    if (kind == AdmitKind::Warm && !compliant.empty()) {
      r.kind = AdmitKind::Warm;
      r.binary = compliant[rng.below(compliant.size())];
    } else if (kind == AdmitKind::UnderClaim) {
      r.binary = fresh(reject_deck, true);
      r.kind = plan.binaries[static_cast<std::size_t>(r.binary)].kind;
    } else {
      r.kind = AdmitKind::Cold;
      r.binary = fresh(cold_deck, false);
      compliant.push_back(r.binary);
    }
    plan.registrations.push_back(r);
  }
  return plan;
}

deflection::Result<deflection::codegen::Dxo> build_binary(const BinarySpec& spec) {
  using R = deflection::Result<deflection::codegen::Dxo>;
  PolicySet policies = spec.kind == AdmitKind::Cold
                           ? (spec.p6 ? PolicySet::p1to6() : PolicySet::p1to5())
                           : PolicySet::p1();
  deflection::codegen::InstrumentOptions options;
  options.opt_level = spec.opt_level;
  auto built = deflection::codegen::compile(
      deflection::workloads::with_params(source_text(spec.source), spec.params), policies,
      &options);
  if (!built.is_ok()) return R::fail(built.code(), built.message());
  deflection::codegen::Dxo dxo = std::move(built.value().dxo);
  if (spec.kind == AdmitKind::OverClaim) dxo.policies = PolicySet::p1to5();
  return dxo;
}

}  // namespace perfbench
