// ledger_probe — the in-process half of the perfledger benchmark.
//
//   ledger_probe replay REQUESTS [RESPONSES]
//       Replays each request line of REQUESTS through the library's public
//       functions (service protocol/json/workload/plan_cache, core evaluate
//       and evaluate_batch, the adjoint gradient, mps::evaluate), recording
//       one span around every call into a layer. When RESPONSES is given
//       (one daemon response line per request line), every in-process
//       result is compared bit for bit with the served one. Prints one JSON
//       object: {"checked", "mismatches", "first_mismatch", "requests",
//       "spans"}.
//
//   ledger_probe host
//       Host fingerprint (cores, L2/L3, NUMA nodes, the kernel backend that
//       `auto` picks) and a STREAM-style triad at 1 and N threads over
//       arrays of at least 4x the L3 size. Prints one JSON object.
//
//   ledger_probe layers
//       Kernel rows (WHT, diagonal phase sweep, diagonal expectation sweep)
//       at n=14 and n=24 with their computed bytes, and one mixer apply per
//       mixer kind. Prints one JSON object.
//
// Spans are kept in memory and printed once at the end, so recording one
// costs two clock reads and a vector append.

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "autodiff/adjoint.hpp"
#include "common/topology.hpp"
#include "core/plan.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/wht.hpp"
#include "mps/mps_plan.hpp"
#include "service/json.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"

namespace fq = fastqaoa;
namespace svc = fastqaoa::service;

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::uint64_t req = 0;  // request id shared by the spans of one request
  int parent = -1;        // index into the span list, -1 = root
  double t0 = 0.0;
  double t1 = 0.0;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tr, std::string name) : tr_(tr) {
      idx_ = static_cast<int>(tr_.spans_.size());
      Span s;
      s.name = std::move(name);
      s.req = tr_.req_;
      s.parent = tr_.stack_.empty() ? -1 : tr_.stack_.back();
      tr_.stack_.push_back(idx_);
      s.t0 = now_s();
      tr_.spans_.push_back(std::move(s));
    }
    ~Scope() {
      tr_.spans_[static_cast<std::size_t>(idx_)].t1 = now_s();
      tr_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tr_;
    int idx_ = 0;
  };

  void set_request(std::uint64_t req) { req_ = req; }

  [[nodiscard]] svc::Json to_json() const {
    svc::Json arr = svc::Json::array();
    for (const Span& s : spans_) {
      svc::Json j = svc::Json::object();
      j.set("name", svc::Json(s.name));
      j.set("req", svc::Json(s.req));
      j.set("parent", svc::Json(s.parent));
      j.set("t0", svc::Json(s.t0));
      j.set("t1", svc::Json(s.t1));
      arr.push_back(std::move(j));
    }
    return arr;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t req_ = 0;
};

// ------------------------------------------------------------ comparisons

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Checker {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::string first;

  void expect(bool ok, std::size_t line, const std::string& what) {
    if (ok) return;
    if (mismatches == 0) first = "line " + std::to_string(line) + ": " + what;
    ++mismatches;
  }
  void expect_double(const svc::Json& result, const char* key, double want,
                     std::size_t line) {
    const svc::Json* v = result.find(key);
    expect(v != nullptr && v->is_number() && same_bits(v->as_double(), want),
           line, key);
  }
  void expect_doubles(const svc::Json& result, const char* key,
                      const std::vector<double>& want, std::size_t line) {
    const svc::Json* v = result.find(key);
    bool ok = v != nullptr && v->is_array() && v->size() == want.size();
    for (std::size_t i = 0; ok && i < want.size(); ++i) {
      ok = same_bits(v->as_array()[i].as_double(), want[i]);
    }
    expect(ok, line, key);
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ------------------------------------------------------------------ replay

/// The flattened MPS term list the service fingerprints (the same layout
/// Service::execute_mps builds).
std::vector<double> mps_key(const fq::mps::DiagonalHamiltonian& h) {
  std::vector<double> key;
  key.reserve(1 + 2 * h.z_terms.size() + 3 * h.zz_terms.size());
  key.push_back(h.constant);
  for (const auto& t : h.z_terms) {
    key.push_back(static_cast<double>(t.site));
    key.push_back(t.coeff);
  }
  for (const auto& t : h.zz_terms) {
    key.push_back(static_cast<double>(t.u));
    key.push_back(static_cast<double>(t.v));
    key.push_back(t.coeff);
  }
  return key;
}

int replay(const std::string& req_path, const std::string& resp_path) {
  const std::vector<std::string> requests = read_lines(req_path);
  std::vector<std::string> responses;
  if (!resp_path.empty()) {
    responses = read_lines(resp_path);
    if (responses.size() != requests.size()) {
      std::fprintf(stderr, "ledger_probe: %zu requests but %zu responses\n",
                   requests.size(), responses.size());
      return 2;
    }
  }

  Tracer tr;
  Checker check;
  svc::PlanCache cache;
  fq::EvalWorkspace ws;
  fq::mps::MpsWorkspace mws;
  svc::Json per_request = svc::Json::array();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& line = requests[i];
    tr.set_request(i);
    svc::Json info = svc::Json::object();
    info.set("req", svc::Json(static_cast<std::uint64_t>(i)));

    auto job = std::make_shared<svc::Job>();
    job->id = i + 1;
    svc::JobResultData& out = job->result;
    bool built = false;
    {
      Tracer::Scope request(tr, "request");
      {
        Tracer::Scope s(tr, "service.json.parse");
        job->spec = svc::job_spec_from_json(svc::Json::parse(line));
      }
      const svc::JobSpec& spec = job->spec;
      info.set("op", svc::Json(svc::to_string(spec.kind)));
      svc::PlanKeyMaterial material;
      svc::PlanHandle plan;
      material.mixer_kind = spec.problem.mixer;
      material.n = spec.problem.n;
      material.rounds = spec.p;
      if (spec.problem.uses_mps()) {
        std::unique_ptr<fq::mps::DiagonalHamiltonian> h;
        std::vector<double> key;
        {
          Tracer::Scope s(tr, "service.workload.build_mps_hamiltonian");
          h = std::make_unique<fq::mps::DiagonalHamiltonian>(
              svc::build_mps_hamiltonian(spec.problem));
          key = mps_key(*h);
        }
        const std::string tag = svc::engine_cache_tag(spec.problem);
        material.k = -1;
        material.obj_vals = key;
        material.engine = tag;
        {
          Tracer::Scope s(tr, "service.plan_cache.get_or_build");
          plan = cache.get_or_build(material, [&]() -> svc::CachedPlan {
            Tracer::Scope b(tr, "service.plan_build");
            built = true;
            svc::CachedPlan entry;
            entry.mps_plan = std::make_shared<const fq::mps::MpsPlan>(
                std::move(*h), svc::mps_options(spec.problem));
            return entry;
          });
        }
        {
          Tracer::Scope s(tr, "mps.evaluate");
          out.expectation = fq::mps::evaluate(*plan->mps_plan, mws,
                                              spec.betas, spec.gammas);
        }
        out.mps = true;
        out.discarded_weight = mws.stats.discarded_weight;
        out.truncations = mws.stats.truncations;
        out.max_bond_reached =
            static_cast<std::uint64_t>(mws.stats.max_bond_reached);
        svc::Json m = svc::Json::object();
        m.set("discarded_weight", svc::Json(out.discarded_weight));
        m.set("truncations", svc::Json(out.truncations));
        m.set("max_bond_reached", svc::Json(out.max_bond_reached));
        info.set("mps", std::move(m));
      } else {
        std::unique_ptr<fq::StateSpace> space;
        fq::dvec obj;
        {
          Tracer::Scope s(tr, "service.workload.problem_space");
          space = std::make_unique<fq::StateSpace>(
              svc::problem_space(spec.problem));
        }
        {
          Tracer::Scope s(tr, "service.workload.build_objective");
          obj = svc::build_objective(spec.problem, *space);
        }
        material.k = spec.problem.effective_k();
        material.obj_vals = obj;
        {
          Tracer::Scope s(tr, "service.plan_cache.get_or_build");
          plan = cache.get_or_build(material, [&]() -> svc::CachedPlan {
            Tracer::Scope b(tr, "service.plan_build");
            built = true;
            svc::CachedPlan entry;
            {
              Tracer::Scope m(tr, "mixers.build");
              entry.mixer = svc::build_mixer(spec.problem, *space);
            }
            {
              Tracer::Scope p(tr, "core.plan_build");
              entry.plan = std::make_shared<const fq::QaoaPlan>(
                  *entry.mixer, std::move(obj), spec.p);
            }
            return entry;
          });
        }
        const fq::QaoaPlan& qp = *plan->plan;
        if (built) ws.reserve(qp);  // first touch outside the kernel span
        switch (spec.kind) {
          case svc::JobKind::Evaluate: {
            Tracer::Scope s(tr, "core.evaluate");
            out.expectation = fq::evaluate(qp, ws, spec.betas, spec.gammas);
            break;
          }
          case svc::JobKind::BatchEvaluate: {
            Tracer::Scope s(tr, "core.evaluate_batch");
            out.expectations.resize(static_cast<std::size_t>(spec.lanes));
            fq::evaluate_batch(qp, ws, spec.betas, spec.gammas,
                               out.expectations);
            out.expectation = out.expectations[0];
            for (const double e : out.expectations) {
              if (spec.minimize ? e < out.expectation : e > out.expectation) {
                out.expectation = e;
              }
            }
            info.set("lanes", svc::Json(spec.lanes));
            break;
          }
          case svc::JobKind::Gradient: {
            Tracer::Scope s(tr, "autodiff.gradient");
            out.grad_betas.resize(spec.betas.size());
            out.grad_gammas.resize(spec.gammas.size());
            out.expectation = fq::adjoint_value_and_gradient(
                qp, ws, spec.betas, spec.gammas, out.grad_betas,
                out.grad_gammas);
            break;
          }
          default:
            throw std::runtime_error("replay supports evaluate, "
                                     "batch_evaluate and gradient only");
        }
      }
      info.set("plan", svc::Json(plan->fingerprint));
      out.cache_hit = !built;
      job->state = svc::JobState::Done;
      {
        Tracer::Scope s(tr, "service.json.dump");
        svc::Json r = svc::job_to_json(*job);
        r.set("ok", svc::Json(true));
        info.set("dump_bytes",
                 svc::Json(static_cast<std::uint64_t>(r.dump().size())));
      }
    }
    info.set("built", svc::Json(built));
    per_request.push_back(std::move(info));

    if (responses.empty()) continue;
    ++check.checked;
    const svc::Json resp = svc::Json::parse(responses[i]);
    const svc::Json* result = resp.find("result");
    if (result == nullptr) {
      check.expect(false, i, "no result in response");
      continue;
    }
    const svc::JobSpec& spec = job->spec;
    check.expect_double(*result, "expectation", out.expectation, i);
    if (spec.kind == svc::JobKind::BatchEvaluate) {
      check.expect_doubles(*result, "expectations", out.expectations, i);
    }
    if (spec.kind == svc::JobKind::Gradient) {
      check.expect_doubles(*result, "grad_betas", out.grad_betas, i);
      check.expect_doubles(*result, "grad_gammas", out.grad_gammas, i);
    }
    if (out.mps) {
      check.expect_double(*result, "discarded_weight", out.discarded_weight,
                          i);
      const svc::Json* t = result->find("truncations");
      check.expect(t != nullptr && t->as_uint64() == out.truncations, i,
                   "truncations");
      const svc::Json* b = result->find("max_bond_reached");
      check.expect(b != nullptr && b->as_uint64() == out.max_bond_reached, i,
                   "max_bond_reached");
    }
  }

  svc::Json j = svc::Json::object();
  j.set("checked", svc::Json(check.checked));
  j.set("mismatches", svc::Json(check.mismatches));
  j.set("first_mismatch", svc::Json(check.first));
  j.set("requests", std::move(per_request));
  j.set("spans", tr.to_json());
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

// ------------------------------------------------------------------ layers

/// Cache size in bytes from sysfs (index2 = L2, index3 = L3 on x86).
std::size_t cache_bytes(int index) {
  const long v = sysconf(index == 2 ? _SC_LEVEL2_CACHE_SIZE
                                    : _SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                   std::to_string(index) + "/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  std::size_t mult = 1;
  if (s.back() == 'K') mult = 1024;
  if (s.back() == 'M') mult = 1024 * 1024;
  return std::stoul(s) * mult;
}

/// Median wall time of `f` over `reps` calls; `reset` runs untimed before
/// each call.
template <class F, class R>
double median_seconds(int reps, F&& f, R&& reset) {
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (double& x : t) {
    reset();
    const double a = now_s();
    f();
    x = now_s() - a;
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// STREAM triad a = b + s*c, best of `reps`, in GB/s (24 bytes/element,
/// STREAM's convention: no write-allocate traffic counted).
double triad_gbps(double* a, const double* b, const double* c, std::size_t n,
                  int threads, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double s = 1.0 + 1e-9 * r;
    const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t0;
    best = std::max(best, 24.0 * static_cast<double>(n) / dt / 1e9);
  }
  return best;
}

int host() {
  const std::size_t l2 = cache_bytes(2);
  const std::size_t l3 = cache_bytes(3);
  const int cores = fq::topology().total_cpus;
  svc::Json j = svc::Json::object();
  j.set("cores", svc::Json(cores));
  j.set("l2_bytes", svc::Json(static_cast<std::uint64_t>(l2)));
  j.set("l3_bytes", svc::Json(static_cast<std::uint64_t>(l3)));
  j.set("numa_nodes", svc::Json(fq::topology().node_count()));
  j.set("kernel_backend", svc::Json(fq::linalg::kernels::active_name()));
  j.set("omp_max_threads", svc::Json(omp_get_max_threads()));

  // Triad arrays: each at least 4x L3 (64 MiB floor when L3 is unknown).
  const std::size_t array_bytes =
      std::max<std::size_t>(4 * l3, std::size_t{64} << 20);
  const std::size_t n = array_bytes / sizeof(double);
  j.set("triad_array_bytes",
        svc::Json(static_cast<std::uint64_t>(n * sizeof(double))));
  {
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    j.set("triad_gbps_1t",
          svc::Json(triad_gbps(a.get(), b.get(), c.get(), n, 1, 4)));
    j.set("triad_gbps_nt", svc::Json(triad_gbps(a.get(), b.get(), c.get(), n,
                                                std::max(1, cores), 6)));
  }
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

int layers() {
  svc::Json j = svc::Json::object();
  // Kernel rows. Computed bytes are the compulsory traffic of one call:
  // WHT reads and writes the state once; the phase sweep reads the state
  // and the table and writes the state; the expectation sweep reads both.
  svc::Json rows = svc::Json::array();
  std::mt19937_64 rng(7);
  for (const int nq : {14, 24}) {
    const std::size_t dim = std::size_t{1} << nq;
    fq::cvec psi(dim);
    fq::dvec d(dim);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t i = 0; i < dim; ++i) {
      psi[i] = {u(rng) * 1e-3, u(rng) * 1e-3};
      d[i] = std::floor(40.0 * (u(rng) + 1.0));
    }
    const int reps = nq <= 16 ? 301 : 7;
    double sink = 0.0;
    const double state_b = 16.0 * static_cast<double>(dim);
    const double table_b = 8.0 * static_cast<double>(dim);
    const auto row = [&](const char* kernel, double seconds, double bytes) {
      svc::Json r = svc::Json::object();
      r.set("kernel", svc::Json(kernel));
      r.set("n", svc::Json(nq));
      r.set("ms", svc::Json(seconds * 1e3));
      r.set("bytes", svc::Json(bytes));
      r.set("gbps", svc::Json(bytes / seconds / 1e9));
      rows.push_back(std::move(r));
    };
    // The unnormalized WHT grows the norm by 2^(n/2); rescale untimed.
    const fq::cplx renorm(1.0 / std::sqrt(static_cast<double>(dim)), 0.0);
    const auto none = [] {};
    row("wht",
        median_seconds(reps, [&] { fq::linalg::wht_unnormalized(psi); },
                       [&] { fq::linalg::scale(psi, renorm); }),
        2.0 * state_b);
    row("phase",
        median_seconds(reps,
                       [&] { fq::linalg::apply_diag_phase(psi, d, 0.37); },
                       none),
        2.0 * state_b + table_b);
    row("expect", median_seconds(reps, [&] {
          sink += fq::linalg::diag_expectation(d, psi);
        }, none),
        state_b + table_b);
    if (sink == 12345.678) std::printf("#");
  }
  j.set("kernels", std::move(rows));

  // One mixer per kind, at the sizes the serve_small pool uses.
  svc::Json mixers = svc::Json::object();
  struct MixerCase {
    const char* label;
    const char* problem;
    const char* mixer;
    int n;
  };
  for (const MixerCase& mc :
       {MixerCase{"x", "maxcut", "tf", 14}, MixerCase{"grover", "ksat", "grover", 12},
        MixerCase{"ring", "densest", "ring", 10},
        MixerCase{"clique", "vertexcover", "clique", 10}}) {
    svc::ProblemSpec ps;
    ps.problem = mc.problem;
    ps.mixer = mc.mixer;
    ps.n = mc.n;
    const fq::StateSpace space = svc::problem_space(ps);
    const auto mixer = svc::build_mixer(ps, space);
    fq::cvec psi(static_cast<std::size_t>(mixer->dim()),
                 fq::cplx(1.0 / std::sqrt(static_cast<double>(mixer->dim())),
                          0.0));
    fq::cvec scratch;
    mixer->apply_exp(psi, 0.3, scratch);  // size scratch once
    double beta = 0.3;
    const double s = median_seconds(
        201,
        [&] {
          beta = -beta;  // alternate e^{-i b H} and e^{+i b H}
          mixer->apply_exp(psi, beta, scratch);
        },
        [] {});
    svc::Json m = svc::Json::object();
    m.set("ms", svc::Json(s * 1e3));
    m.set("dim", svc::Json(static_cast<std::uint64_t>(mixer->dim())));
    mixers.set(mc.label, std::move(m));
  }
  j.set("mixers", std::move(mixers));
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "replay" && (argc == 3 || argc == 4)) {
      return replay(argv[2], argc == 4 ? argv[3] : "");
    }
    if (mode == "host" && argc == 2) return host();
    if (mode == "layers" && argc == 2) return layers();
    std::fprintf(stderr,
                 "usage: ledger_probe replay REQUESTS [RESPONSES]\n"
                 "       ledger_probe host\n"
                 "       ledger_probe layers\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_probe: %s\n", e.what());
    return 1;
  }
}
