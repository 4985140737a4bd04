#include "replay.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "codegen/compile.h"
#include "core/protocol.h"
#include "registry/registry.h"
#include "registry/scheduler.h"
#include "verifier/loader.h"

namespace perfbench {

namespace core = deflection::core;
namespace sgx = deflection::sgx;
namespace verifier = deflection::verifier;
using deflection::PolicySet;
using deflection::Result;
using deflection::Status;

namespace {

// In-memory span recorder for one thread. Parents are implicit: a span
// begun while another is open is its child.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~0u;
  struct Span {
    std::uint32_t parent = kNone;
    std::uint32_t name = 0;
    std::int64_t request = 0;  // >= 0: serve request; < 0: -(admission + 1)
    std::int64_t start_ns = 0, end_ns = 0;
  };

  std::uint32_t begin(const char* name, std::int64_t request) {
    Span s;
    s.parent = open_.empty() ? kNone : open_.back();
    s.name = intern(name);
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }
  void end(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }
  // Names a span after the fact (when the outcome decides its name).
  void rename(std::uint32_t id, const char* name) { spans_[id].name = intern(name); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  // Durations (us) of every span with this name.
  std::vector<double> durations_us(const char* name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (names_[s.name] == name) out.push_back((s.end_ns - s.start_ns) / 1000.0);
    return out;
  }
  // Self time of every span: duration minus the time its children cover.
  std::vector<double> self_us() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent != kNone) child[s.parent] += s.end_ns - s.start_ns;
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[i] = (spans_[i].end_ns - spans_[i].start_ns - child[i]) / 1000.0;
    return out;
  }

  bool write_csv(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "span,parent,request,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << i << ',' << (s.parent == kNone ? -1 : static_cast<std::int64_t>(s.parent)) << ','
        << s.request << ',' << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(f);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  std::uint32_t intern(const char* name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return i;
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t request) : t_(t), id_(t.begin(name, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(const char* name) { t_.rename(id_, name); }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

// A mirror of one core::ServiceWorker: platform quoting enclave, bootstrap
// enclave and the two remote parties, built exactly as its constructor does.
struct Unit {
  std::unique_ptr<sgx::QuotingEnclave> quoting;
  std::unique_ptr<core::BootstrapEnclave> enclave;
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<core::CodeProvider> provider;
  std::string bound;        // mirror slot binding (empty = unbound)
  bool pristine = true;     // never provisioned: binding skips the reset
  std::uint64_t last_used = 0;
};

Unit make_unit(sgx::AttestationService& as, const core::BootstrapConfig& config, int index,
               const std::string& prefix) {
  Unit u;
  u.quoting = std::make_unique<sgx::QuotingEnclave>(
      as.provision(prefix + std::to_string(index), 1000 + static_cast<std::uint64_t>(index)));
  core::BootstrapConfig c = config;
  c.rng_seed = config.rng_seed + static_cast<std::uint64_t>(index) + 1;
  u.enclave = std::make_unique<core::BootstrapEnclave>(*u.quoting, c);
  auto expected = core::BootstrapEnclave::expected_mrenclave(c);
  u.owner = std::make_unique<core::DataOwner>(as, expected,
                                              0xDA7A00 + static_cast<std::uint64_t>(index));
  u.provider = std::make_unique<core::CodeProvider>(
      as, expected, 0xC0DE00 + static_cast<std::uint64_t>(index));
  return u;
}

// The enclave layout every consumer built from `config` gets (replays the
// build phase on a shadow enclave, as expected_mrenclave does).
verifier::EnclaveLayout consumer_layout(const core::BootstrapConfig& config) {
  auto layout = verifier::EnclaveLayout::compute(config.enclave_base, config.layout);
  sgx::AddressSpace space(config.host_base, config.host_size, config.enclave_base,
                          layout.enclave_size);
  sgx::Enclave shadow(space, layout.ssa_addr);
  auto built = verifier::Loader::build_enclave(shadow, config.enclave_base, config.layout,
                                               core::BootstrapEnclave::consumer_image(config));
  return built.is_ok() ? built.value() : layout;
}

// ServiceWorker::provision's channel handshakes and sealed binary upload.
Status handshake_and_deliver(Tracer& tr, Unit& u, const codegen::Dxo& dxo, std::int64_t rq) {
  {
    Scope s(tr, "core.handshake", rq);
    auto owner_offer = u.enclave->open_channel(core::Role::DataOwner, u.owner->dh_public());
    if (auto st = u.owner->accept(owner_offer); !st.is_ok()) return st;
    auto provider_offer =
        u.enclave->open_channel(core::Role::CodeProvider, u.provider->dh_public());
    if (auto st = u.provider->accept(provider_offer); !st.is_ok()) return st;
  }
  Bytes sealed;
  {
    Scope s(tr, "crypto.seal_binary", rq);
    sealed = u.provider->seal_binary(dxo);
  }
  Scope s(tr, "core.deliver", rq);
  return u.enclave->ecall_receive_binary(BytesView(sealed)).status();
}

struct AdmitItem {
  std::string id;
  const codegen::Dxo* dxo = nullptr;
  crypto::Digest digest{};
  AdmitKind kind = AdmitKind::Cold;
  bool keep = false;  // a serving tenant: stays registered for the request replay
};

class Replayer {
 public:
  // The two stacks share the deployment's configuration but not its cache,
  // so each sees the same hit/miss sequence from the same inputs.
  Replayer(const ReplayInputs& in, ReplayResult* out) : in_(in), out_(out) {
    real_config_ = mirror_config_ = deployment_options().config;
    real_config_.verify_cache = std::make_shared<verifier::VerificationCache>();
    mirror_config_.verify_cache = std::make_shared<verifier::VerificationCache>();
    layout_ = consumer_layout(mirror_config_);
  }

  bool init() {
    registry_ = std::make_unique<registry::TenantRegistry>(real_config_);
    registry::EnclaveSlotScheduler::Options options;
    options.config = real_config_;
    auto sched = registry::EnclaveSlotScheduler::create(2, options);
    if (!sched.is_ok()) return problem("scheduler: " + sched.message());
    sched_ = sched.take();
    scratch_ = make_unit(mirror_as_, mirror_config_, 0, "mirror-admission-");
    for (int i = 0; i < 2; ++i) slots_.push_back(make_unit(mirror_as_, mirror_config_, i, "mirror-slot-"));
    return true;
  }

  void admit_all(const std::vector<AdmitItem>& items) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      admit_real(items[i]);
      admit_mirror(items[i], -static_cast<std::int64_t>(i) - 1);
    }
  }

  void serve_all(const std::vector<Request>& requests, Clock::time_point deadline) {
    constexpr std::size_t kMaxRequests = 20000;
    const auto& d = *in_.deployment;
    for (std::size_t i = 0; i < kMaxRequests && !requests.empty() && Clock::now() < deadline;
         ++i) {
      const Request& r = requests[i % requests.size()];
      const auto t = static_cast<std::size_t>(r.tenant);
      serve_real(d.ids[t], d.services[t], r);
      Unit* u = serve_mirror(d.ids[t], d.services[t], r, static_cast<std::int64_t>(i));
      if (u != nullptr) seal_probe(*u, static_cast<std::int64_t>(i));
      ++out_->requests;
    }
  }

  void finish() {
    auto med_us = [&](const char* span, double scale) {
      return median(tracer_.durations_us(span)) * scale;
    };
    auto& v = out_->values;
    v["registry.acquire_warm_us"] = median(acquire_warm_us_);
    v["registry.rebind_ms"] = median(rebind_us_) / 1000;
    v["registry.admit_cold_ms"] = median(admit_us_[AdmitKind::Cold]) / 1000;
    v["registry.admit_warm_ms"] = median(admit_us_[AdmitKind::Warm]) / 1000;
    std::vector<double> rejects = admit_us_[AdmitKind::UnderClaim];
    rejects.insert(rejects.end(), admit_us_[AdmitKind::OverClaim].begin(),
                   admit_us_[AdmitKind::OverClaim].end());
    v["registry.admit_reject_ms"] = median(rejects) / 1000;
    v["core.serve_us"] = median(serve_us_);
    v["core.receive_userdata_us"] = med_us("core.receive_userdata", 1);
    v["core.ecall_run_us"] = med_us("core.ecall_run", 1);
    v["core.reset_ms"] = med_us("core.reset", 1e-3);
    v["core.handshake_us"] = med_us("core.handshake", 1);
    v["core.deliver_us"] = med_us("core.deliver", 1);
    v["core.prepare_hit_us"] = med_us("core.prepare_hit", 1);
    v["core.prepare_cold_ms"] = med_us("core.prepare_cold", 1e-3);
    v["crypto.seal_input_us"] = med_us("crypto.seal_input", 1);
    v["crypto.open_output_us"] = med_us("crypto.open_output", 1);
    v["crypto.aead_seal_1k_us"] = med_us("crypto.aead_seal_1k", 1);
    v["crypto.seal_binary_us"] = med_us("crypto.seal_binary", 1);
    v["crypto.output_frames_per_req"] = mean(frames_);
    v["verifier.load_us"] = med_us("verifier.load", 1);
    v["verifier.verify_ms"] = med_us("verifier.verify", 1e-3);
    v["verifier.reject_ms"] = med_us("verifier.reject", 1e-3);
    v["verifier.rewrite_us"] = med_us("verifier.rewrite", 1);
    v["vm.instructions_per_req"] = mean(instructions_);
    v["vm.cost_per_req"] = mean(cost_);
    out_->traced_serve_us = med_us("serve", 1);

    // Mean self time per request of every span inside a request tree, keyed
    // by (branch, name); a span's branch is its ancestor directly under the
    // tree's root. Parents precede children, so one forward pass suffices.
    const auto& spans = tracer_.spans();
    std::vector<double> self = tracer_.self_us();
    std::vector<std::uint32_t> root(spans.size()), branch(spans.size());
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> slot;  // -> index
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto p = spans[i].parent;
      const auto me = static_cast<std::uint32_t>(i);
      root[i] = p == Tracer::kNone ? me : root[p];
      branch[i] = p == Tracer::kNone || spans[p].parent == Tracer::kNone ? me : branch[p];
      if (tracer_.name(spans[root[i]].name) != "request") continue;
      auto key = std::make_pair(spans[branch[i]].name, spans[i].name);
      auto [it, fresh] = slot.emplace(key, out_->request_self_us.size());
      if (fresh)
        out_->request_self_us.push_back(
            {tracer_.name(spans[i].name), tracer_.name(spans[branch[i]].name), 0});
      out_->request_self_us[it->second].us += self[i];
    }
    const double n = std::max<double>(1, static_cast<double>(out_->requests));
    for (auto& s : out_->request_self_us) s.us /= n;
    if (in_.trace_out.empty()) return;
    if (tracer_.write_csv(in_.trace_out))
      std::printf("spans: %zu written to %s\n", spans.size(), in_.trace_out.c_str());
    else
      problem("cannot write spans to " + in_.trace_out);
  }

 private:
  bool problem(const std::string& what) {
    if (out_->problems.size() < 8) out_->problems.push_back(what);
    return false;
  }

  // The verdict oracle, shared by both stacks.
  void judge(const AdmitItem& item, bool admitted, const std::string& code, const char* stack) {
    ++out_->attempted;
    bool right = admit_expected(item.kind) ? admitted
                                           : !admitted && is_verifier_rejection(code);
    if (!right) {
      ++out_->failed;
      problem(std::string(stack) + " " + item.id + " (" + admit_kind_name(item.kind) +
              "): unexpected verdict " + (admitted ? "admitted" : code));
    }
  }

  void admit_real(const AdmitItem& item) {
    auto t0 = Clock::now();
    auto admitted = registry_->admit(item.id, *item.dxo, deployment_quota());
    admit_us_[item.kind].push_back(us_between(t0, Clock::now()));
    judge(item, admitted.is_ok() && admitted.value() == item.digest,
          admitted.is_ok() ? "" : admitted.code(), "registry");
    if (admitted.is_ok() && !item.keep) (void)registry_->remove(item.id);
  }

  // TenantRegistry::admit, step by step: digest, warm probe, then (cold)
  // the scratch consumer's reset, handshake, delivery and ensure_verified's
  // load -> single-flight admission -> verify -> rewrite.
  void admit_mirror(const AdmitItem& item, std::int64_t rq) {
    auto& cache = *mirror_config_.verify_cache;
    Scope admit(tracer_, "admit", rq);
    crypto::Digest digest;
    {
      Scope s(tracer_, "crypto.digest", rq);
      digest = crypto::Sha256::hash(item.dxo->serialize());
    }
    bool warm = false;
    {
      Scope s(tracer_, "verifier.warm_probe", rq);
      warm = cache.warm_probe(digest, item.dxo->policies.mask(), mirror_config_.verify);
    }
    if (warm) return judge(item, true, "", "mirror");
    if (scratch_dirty_) {
      Scope s(tracer_, "core.reset", rq);
      if (auto st = scratch_.enclave->reset(); !st.is_ok()) return judge(item, false, st.code(), "mirror");
    }
    scratch_dirty_ = true;
    if (auto st = handshake_and_deliver(tracer_, scratch_, *item.dxo, rq); !st.is_ok())
      return judge(item, false, st.code(), "mirror");
    Scope prepare(tracer_, "core.prepare_cold", rq);
    sgx::Enclave& enclave = scratch_.enclave->enclave();
    verifier::Loader loader(enclave, layout_);
    std::optional<Result<verifier::LoadedBinary>> loaded;
    {
      Scope s(tracer_, "verifier.load", rq);
      loaded.emplace(loader.load(*item.dxo));
    }
    if (!loaded->is_ok()) {
      prepare.rename("core.prepare_reject");
      return judge(item, false, loaded->code(), "mirror");
    }
    using Role = verifier::VerificationCache::Admission::Role;
    std::optional<verifier::VerificationCache::Admission> adm;
    {
      Scope s(tracer_, "verifier.admission", rq);
      adm.emplace(cache.begin_admission(digest, loaded->value(), mirror_config_.verify));
    }
    verifier::VerifyReport report;
    if (adm->role == Role::Hit) {
      report = *adm->report;
    } else if (adm->role == Role::Leader) {
      Scope s(tracer_, "verifier.verify", rq);
      auto t0 = Clock::now();
      auto verdict = verifier::verify(enclave.space(), loaded->value(), mirror_config_.verify);
      if (!verdict.is_ok()) {
        s.rename("verifier.reject");
        prepare.rename("core.prepare_reject");
        adm->ticket.fail(verdict.status());
        return judge(item, false, verdict.code(), "mirror");
      }
      report = verdict.take();
      adm->ticket.publish(loaded->value(), report,
                          static_cast<std::uint64_t>(us_between(t0, Clock::now()) * 1000));
    } else {
      problem("mirror admission of " + item.id + " neither hit nor led");
      return judge(item, false, "admission_role", "mirror");
    }
    Scope s(tracer_, "verifier.rewrite", rq);
    Status rewritten = verifier::rewrite_immediates(enclave.space(), loaded->value(), report);
    judge(item, rewritten.is_ok(), rewritten.is_ok() ? "" : rewritten.code(), "mirror");
  }

  void record_serve(const registry::TenantRouter::Response& response, const Request& r,
                    const char* stack) {
    ++out_->attempted;
    bool ok = response.is_ok() && response.value().size() == 1 &&
              response.value()[0] == tiny_service_reference(r.tenant, BytesView(r.payload));
    if (!ok) {
      ++out_->failed;
      problem(std::string(stack) + " serve: " +
              (response.is_ok() ? "output differs from reference" : response.message()));
    }
  }

  void serve_real(const std::string& id, const codegen::Dxo& dxo, const Request& r) {
    const std::uint64_t binds = sched_->stats().binds;
    auto t0 = Clock::now();
    auto lease = sched_->acquire(id, dxo);
    auto t1 = Clock::now();
    if (!lease.is_ok()) {
      ++out_->attempted;
      ++out_->failed;
      problem("acquire: " + lease.message());
      return;
    }
    (sched_->stats().binds != binds ? rebind_us_ : acquire_warm_us_).push_back(us_between(t0, t1));
    auto t2 = Clock::now();
    auto response = sched_->serve(lease.value(), r.payload);
    serve_us_.push_back(us_between(t2, Clock::now()));
    sched_->release(lease.value(), response.is_ok());
    record_serve(response, r, "scheduler");
  }

  // EnclaveSlotScheduler::acquire's slot choice (affinity, then an unbound
  // slot, then the least recently used), then ServiceWorker::serve. Returns
  // the slot that served, or nullptr when the request failed.
  Unit* serve_mirror(const std::string& id, const codegen::Dxo& dxo, const Request& r,
                     std::int64_t rq) {
    auto fail = [&](const std::string& code, const std::string& message) -> Unit* {
      record_serve(registry::TenantRouter::Response::fail(code, message), r, "mirror");
      return nullptr;
    };
    Scope request(tracer_, "request", rq);
    Unit* u = nullptr;
    {
      Scope acquire(tracer_, "acquire", rq);
      for (auto& slot : slots_)
        if (slot.bound == id && (u == nullptr || slot.last_used > u->last_used)) u = &slot;
      if (u == nullptr)
        for (auto& slot : slots_)
          if (slot.bound.empty()) {
            u = &slot;
            break;
          }
      if (u == nullptr)
        for (auto& slot : slots_)
          if (u == nullptr || slot.last_used < u->last_used) u = &slot;
      u->last_used = ++tick_;
      if (u->bound != id) {
        Scope rebind(tracer_, "rebind", rq);
        if (!u->pristine) {
          Scope s(tracer_, "core.reset", rq);
          (void)u->enclave->reset();
        }
        u->pristine = false;
        u->bound = id;
        Status st = handshake_and_deliver(tracer_, *u, dxo, rq);
        if (st.is_ok()) {
          const std::uint64_t misses = mirror_config_.verify_cache->stats().misses;
          Scope s(tracer_, "core.prepare_hit", rq);
          st = u->enclave->ecall_prepare();
          if (mirror_config_.verify_cache->stats().misses != misses)
            problem("slot bind of " + id + " missed the admission cache");
        }
        if (!st.is_ok()) {
          u->bound.clear();
          return fail(st.code(), st.message());
        }
      }
    }
    Scope serve(tracer_, "serve", rq);
    Bytes sealed;
    {
      Scope s(tracer_, "crypto.seal_input", rq);
      sealed = u->owner->seal_input(BytesView(r.payload));
    }
    {
      Scope s(tracer_, "core.receive_userdata", rq);
      if (auto st = u->enclave->ecall_receive_userdata(BytesView(sealed)); !st.is_ok())
        return fail(st.code(), st.message());
    }
    std::optional<Result<core::RunOutcome>> run;
    {
      Scope s(tracer_, "core.ecall_run", rq);
      run.emplace(u->enclave->ecall_run());
    }
    if (!run->is_ok()) return fail(run->code(), run->message());
    const core::RunOutcome& outcome = run->value();
    instructions_.push_back(static_cast<double>(outcome.result.instructions));
    cost_.push_back(static_cast<double>(outcome.result.cost));
    frames_.push_back(static_cast<double>(outcome.sealed_output.size()));
    std::vector<Bytes> outputs;
    for (const auto& frame : outcome.sealed_output) {
      Scope s(tracer_, "crypto.open_output", rq);
      auto plain = u->owner->open_output(BytesView(frame));
      if (!plain.is_ok()) return fail(plain.code(), plain.message());
      outputs.push_back(plain.take());
    }
    record_serve(outputs, r, "mirror");
    return u;
  }

  // One padded output frame sealed under the data-owner key: the in-enclave
  // ocall_send cost, timed from outside the request tree.
  void seal_probe(Unit& u, std::int64_t rq) {
    if (!u.owner->has_session()) return;
    static const Bytes frame(1024, 0);
    crypto::Nonce96 nonce{};
    std::memcpy(nonce.data(), &rq, sizeof(rq));
    Scope s(tracer_, "crypto.aead_seal_1k", rq);
    sink_ ^= crypto::aead_seal(u.owner->session_key(), nonce, BytesView(frame)).back();
  }

  const ReplayInputs& in_;
  ReplayResult* out_;
  core::BootstrapConfig real_config_, mirror_config_;
  verifier::EnclaveLayout layout_;
  std::unique_ptr<registry::TenantRegistry> registry_;
  std::unique_ptr<registry::EnclaveSlotScheduler> sched_;
  sgx::AttestationService mirror_as_;
  Unit scratch_;
  bool scratch_dirty_ = false;
  std::vector<Unit> slots_;
  std::uint64_t tick_ = 0;
  Tracer tracer_;
  std::map<AdmitKind, std::vector<double>> admit_us_;
  std::vector<double> acquire_warm_us_, rebind_us_, serve_us_;
  std::vector<double> instructions_, cost_, frames_;
  std::uint8_t sink_ = 0;
};

}  // namespace

ReplayResult replay(const ReplayInputs& in) {
  ReplayResult out;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(in.seconds));
  const Deployment& d = *in.deployment;
  // Admissions: the serving tenants' set-up registrations, then either the
  // registration stream (admit_stream) or, for each serving binary, a
  // re-registration under a new id and an under-claimed P1-only twin, so
  // every admission path is timed on every workload.
  std::vector<AdmitItem> items;
  std::vector<codegen::Dxo> twins;
  twins.reserve(d.services.size());
  for (std::size_t t = 0; t < d.services.size(); ++t)
    items.push_back({d.ids[t], &d.services[t], crypto::Sha256::hash(d.services[t].serialize()),
                     AdmitKind::Cold, true});
  if (in.plan != nullptr) {
    for (std::size_t i = 0; i < in.plan->registrations.size(); ++i) {
      const auto b = static_cast<std::size_t>(in.plan->registrations[i].binary);
      items.push_back({"provider-" + std::to_string(i), &d.stream[b], d.stream_digests[b],
                       in.plan->registrations[i].kind, false});
    }
  } else {
    for (std::size_t t = 0; t < d.services.size(); ++t)
      items.push_back({"re-" + d.ids[t], &d.services[t], items[t].digest, AdmitKind::Warm, false});
    for (std::size_t t = 0; t < d.services.size(); ++t) {
      auto twin = codegen::compile(tiny_service_source(static_cast<int>(t)), PolicySet::p1());
      if (!twin.is_ok()) {
        out.problems.push_back("twin compile: " + twin.message());
        return out;
      }
      twins.push_back(twin.take().dxo);
      items.push_back({"twin-" + d.ids[t], &twins.back(),
                       crypto::Sha256::hash(twins.back().serialize()), AdmitKind::UnderClaim,
                       false});
    }
  }
  Replayer r(in, &out);
  if (!r.init()) return out;
  r.admit_all(items);
  r.serve_all(in.schedule->requests, deadline);
  r.finish();
  return out;
}

}  // namespace perfbench
