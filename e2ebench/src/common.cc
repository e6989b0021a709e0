#include "common.hh"

#include <cpuid.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "arch/baselines.hh"
#include "core/objective.hh"
#include "exec/eval_cache.hh"
#include "gp/gaussian_process.hh"
#include "mapping/rounding.hh"
#include "model/reference.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "surrogate/dataset.hh"
#include "surrogate/latency_predictor.hh"
#include "util/divisors.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace e2e {


using namespace dosa;

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"samples_per_s", "1/s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        // Workload headline figures (deterministic for a seed, or
        // measured at the frozen service ladder); 0 = not this
        // workload's figure.
        {"edp_dosa_vs_random", "x"},
        {"edp_dosa_vs_bayesopt", "x"},
        {"rtl_edp_gain", "x"},
        {"request_p50_ms", "ms"},
        {"request_tail_ms", "ms"},
        {"max_rate_rps", "1/s"},
        // api, search: phase timestamps from SearchObserver::onPhase.
        {"api.setup_s", "s"},
        {"api.searches", "count"},
        {"api.samples", "count"},
        {"search.dosa.starts_s", "s"},
        {"search.dosa.descent_s", "s"},
        {"search.dosa.merge_s", "s"},
        {"search.dosa.wall_s", "s"},
        {"search.random.sampling_s", "s"},
        {"search.random.merge_s", "s"},
        {"search.random.wall_s", "s"},
        {"search.bayesopt.warmup_s", "s"},
        {"search.bayesopt.guided_s", "s"},
        {"search.bayesopt.wall_s", "s"},
        {"search.mapper.run_s", "s"},
        // gp probe.
        {"gp.fit_ms", "ms"},
        {"gp.lcb_us", "us"},
        // core, autodiff probe + counters.
        {"core.build_us", "us"},
        {"core.eval_us", "us"},
        {"core.eval_dnn_us", "us"},
        {"core.eval_batch_us_per_cand", "us"},
        {"objective.builds", "count"},
        {"objective.replays", "count"},
        {"objective.batch_sweeps", "count"},
        {"objective.batch_candidates", "count"},
        // model, mapping, util probes + counters.
        {"model.reference_us", "us"},
        {"mapping.sample_us", "us"},
        {"mapping.round_us", "us"},
        {"util.divisors_ns", "ns"},
        {"divisors.memo_hits", "count"},
        {"divisors.memo_misses", "count"},
        // exec.
        {"exec.eval_cache.hits", "count"},
        {"exec.eval_cache.misses", "count"},
        {"exec.eval_cache.hit_rate", "ratio"},
        {"exec.pool.regions", "count"},
        {"exec.pool.tasks", "count"},
        // surrogate, nn.
        {"surrogate.score_calls", "count"},
        {"surrogate.score_queries", "count"},
        {"surrogate.score_s", "s"},
        {"surrogate.dataset_s", "s"},
        {"nn.train_s", "s"},
        // service.
        {"service.queue_wait_ms.p50", "ms"},
        {"service.queue_wait_ms.tail", "ms"},
        {"service.run_ms.p50", "ms"},
        {"service.run_ms.tail", "ms"},
        {"service.client_gap_ms.p50", "ms"},
        {"service.client_gap_ms.tail", "ms"},
        {"service.first_frame_ms.p50", "ms"},
        {"service.stats_ms.p50", "ms"},
        {"service.stats_ms.tail", "ms"},
        {"service.frames_per_request", "count"},
        {"service.admitted", "count"},
        {"service.rejected", "count"},
        // bench (load generator), obs.
        {"bench.generator_lag_ms.tail", "ms"},
        {"bench.generator_lag_ms.max", "ms"},
        {"bench.sent", "count"},
        {"bench.succeeded", "count"},
        {"bench.failed", "count"},
        {"obs.trace_overhead_pct", "%"},
    };
    return defs;
}

Report::Report(bool traced) : traced_(traced)
{
    for (const MetricDef &d : traced ? perLayerMetrics()
                                     : endToEndMetrics())
        units_[d.name] = d.unit;
    // Per-layer metrics of a layer the workload does not exercise
    // read 0; end-to-end metrics must all be measured.
    if (traced)
        for (const auto &[name, unit] : units_)
            values_[name] = 0.0;
}

void
Report::set(const std::string &name, double value)
{
    if (units_.count(name) == 0)
        panic("e2ebench: metric \"" + name + "\" is not in the " +
              (traced_ ? "per-layer" : "end-to-end") + " catalogue");
    values_[name] = value;
}

void
Report::line(const std::string &text) const
{
    std::printf("%s\n", text.c_str());
    std::fflush(stdout);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fixed(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

int
Report::finish() const
{
    for (const std::string &msg : tally.messages())
        line("FAILED: " + msg);
    std::string metrics;
    for (const auto &[name, unit] : units_) {
        auto it = values_.find(name);
        if (it == values_.end())
            panic("e2ebench: metric \"" + name + "\" was not measured");
        line("metric " + name + " = " + num(it->second) + " " + unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + name + "\": {\"value\": " + num(it->second) +
                   ", \"unit\": \"" + unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
            tally.correct() ? "true" : "false",
            static_cast<unsigned long long>(tally.attempted()),
            static_cast<unsigned long long>(tally.failed()),
            metrics.c_str());
    std::fflush(stdout);
    return tally.correct() ? 0 : 1;
}

namespace {

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

} // namespace

std::string
fingerprint(uint64_t seed)
{
    const char *sha = std::getenv("E2E_GIT_SHA");
    std::string build = E2E_BUILD_TYPE;
    std::string out = "fingerprint: nproc=" +
            std::to_string(std::thread::hardware_concurrency()) +
            " cpu=\"" + cpuModel() + "\" compiler=\"" + E2E_COMPILER +
            "\" build=" + build + " git=" +
            (sha != nullptr && *sha != '\0' ? sha : "unknown") +
            " seed=" + std::to_string(seed);
#ifndef __OPTIMIZE__
    out += "\n*** WARNING: built WITHOUT optimisation (" + build +
           "); timings are not comparable ***";
#endif
    return out;
}

double
peakRssMb()
{
    // VmHWM belongs to this program's address space. getrusage's
    // ru_maxrss survives execve, so it would report the launching
    // process's peak whenever that is the larger one.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f != nullptr) {
        char line[256];
        long kib = -1;
        while (std::fgets(line, sizeof(line), f) != nullptr)
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib > 0)
            return double(kib) / 1024.0;
    }
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // KiB
}

std::map<std::string, uint64_t>
counterSnapshot()
{
    return obs::globalMetrics().snapshot().counters;
}

uint64_t
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after,
             const std::string &name)
{
    auto b = before.find(name);
    auto a = after.find(name);
    uint64_t bv = b == before.end() ? 0 : b->second;
    uint64_t av = a == after.end() ? 0 : a->second;
    return av >= bv ? av - bv : 0;
}

void
PhaseTimer::begin(const std::string &algorithm)
{
    algorithm_ = algorithm;
    current_.clear();
}

void
PhaseTimer::onPhase(const char *phase)
{
    Clock::time_point now = Clock::now();
    if (!current_.empty()) {
        std::string key = algorithm_ + "." + current_;
        totals_[key] += std::chrono::duration<double>(now - start_).count();
        obs::Tracer &tracer = obs::globalTracer();
        if (tracer.enabled())
            tracer.recordSpan("bench.phase", "bench",
                    tracer.sinceEpochNs(start_), tracer.sinceEpochNs(now));
    }
    current_ = phase;
    start_ = now;
    if (current_ == "setup")
        ++counts_[algorithm_ + ".setup"];
    if (current_ == "done")
        current_.clear();
}

void
reportPhases(Report &report, const PhaseTimer &timer)
{
    const auto &t = timer.totals();
    auto get = [&](const std::string &key) {
        auto it = t.find(key);
        return it == t.end() ? 0.0 : it->second;
    };
    double setup = 0.0;
    int setups = 0;
    for (const auto &[key, n] : timer.counts()) {
        setup += t.count(key) != 0 ? t.at(key) : 0.0;
        setups += n;
    }
    report.set("api.setup_s", setups > 0 ? setup / setups : 0.0);
    for (const char *name : {"dosa.starts", "dosa.descent", "dosa.merge",
                 "random.sampling", "random.merge", "bayesopt.warmup",
                 "bayesopt.guided"})
        report.set(std::string("search.") + name + "_s", get(name));
    report.set("search.mapper.run_s", get("mapper.sampling"));
    for (const auto &[algo, secs] : timer.walls())
        report.set("search." + algo + ".wall_s", secs);
}

void
reportCounters(Report &report,
               const std::map<std::string, uint64_t> &before,
               const std::map<std::string, uint64_t> &after)
{
    for (const char *name : {"api.searches", "api.samples",
                 "objective.builds", "objective.replays",
                 "objective.batch_sweeps", "objective.batch_candidates",
                 "divisors.memo_hits", "divisors.memo_misses",
                 "exec.pool.regions", "exec.pool.tasks"})
        report.set(name, double(counterDelta(before, after, name)));
    CacheStats cs = globalEvalCache().stats();
    report.set("exec.eval_cache.hits", double(cs.hits));
    report.set("exec.eval_cache.misses", double(cs.misses));
    report.set("exec.eval_cache.hit_rate", cs.hitRate());
}

namespace {

/** Median per-call time (in `unit_s` units) of `reps` timed batches
 *  of `calls` calls each. */
template <class F>
double
timePerCall(int reps, int calls, double unit_s, F &&fn)
{
    std::vector<double> per_call;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            fn(i);
        per_call.push_back(secondsSince(t0) / calls / unit_s);
    }
    return median(per_call);
}

/** Keeps a probe's results observable so calls are not elided. */
volatile double g_sink = 0.0;

} // namespace

void
runLayerProbes(Report &report, const std::vector<Layer> &layers,
               const DiffLatencyModel *dnn_model, uint64_t seed)
{
    const HardwareConfig hw = gemminiDefault().config;
    const size_t nl = layers.size();
    Rng rng(seed * 7919 + 17);

    // gp: BB-BO-shaped rows (encodeFeatures of random valid mappings
    // on random hardware) with log layer-EDP targets, 300 points.
    {
        obs::TraceSpan span("probe.gp", "bench");
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (int i = 0; i < 300; ++i) {
            const Layer &l = layers[size_t(i) % nl];
            HardwareConfig h{rng.uniformInt(4, 32),
                    rng.uniformInt(8, 256), rng.uniformInt(32, 512)};
            Mapping m = randomValidMapping(l, h, rng, 16);
            RefEval ev = referenceEval(l, m, h);
            x.push_back(encodeFeatures(l, m, h));
            y.push_back(std::log(std::max(ev.energy_uj * ev.latency,
                    1e-30)));
        }
        GpParams params;
        params.length_scale = 3.0;
        params.signal_var = 4.0;
        params.noise_var = 1e-2;
        GaussianProcess gp(params);
        report.set("gp.fit_ms", timePerCall(3, 1, 1e-3,
                [&](int) { gp.fit(x, y); }));
        std::vector<std::vector<double>> cands;
        for (int i = 0; i < 64; ++i) {
            const Layer &l = layers[size_t(i) % nl];
            cands.push_back(encodeFeatures(l,
                    randomValidMapping(l, hw, rng, 16), hw));
        }
        report.set("gp.lcb_us", timePerCall(5, 64, 1e-6, [&](int i) {
            g_sink = g_sink + gp.lcb(cands[size_t(i)], 1.0);
        }));
    }

    // core, autodiff: the descent objective over the workload layers
    // at the CoSA start point.
    {
        obs::TraceSpan span("probe.core", "bench");
        std::vector<double> x0;
        std::vector<OrderVec> orders;
        for (const Layer &l : layers) {
            Mapping m = cosaMap(l, hw);
            std::vector<double> xl = packMapping(m);
            x0.insert(x0.end(), xl.begin(), xl.end());
            orders.push_back(m.order);
        }
        ObjectiveMode mode;
        report.set("core.build_us", timePerCall(5, 1, 1e-6, [&](int) {
            ObjectiveEngine fresh;
            g_sink = g_sink + fresh.eval(layers, x0, orders,
                    OrderStrategy::Fixed, mode).loss;
        }));
        ObjectiveEngine engine;
        (void)engine.eval(layers, x0, orders, OrderStrategy::Fixed, mode);
        report.set("core.eval_us", timePerCall(5, 20, 1e-6, [&](int) {
            g_sink = g_sink + engine.eval(layers, x0, orders,
                    OrderStrategy::Fixed, mode).loss;
        }));
        std::vector<std::vector<double>> xs(16, x0);
        for (size_t k = 1; k < xs.size(); ++k)
            for (double &v : xs[k])
                v += rng.uniformReal(-0.1, 0.1);
        report.set("core.eval_batch_us_per_cand",
                timePerCall(5, 1, 1e-6, [&](int) {
                    g_sink = g_sink + engine.evalBatch(layers, xs, orders,
                            OrderStrategy::Fixed, mode)[0].loss;
                }) / double(xs.size()));

        // With a learned latency model on the tape. A workload without
        // one gets the surrogate/nn probe: the 800-point dataset, a
        // 30-epoch combined predictor (the probe times training, not
        // accuracy) and its own scorer on a batch of designs.
        std::unique_ptr<LatencyPredictor> probe_model;
        std::unique_ptr<SurrogateDiffModel> probe_diff;
        if (dnn_model == nullptr) {
            obs::TraceSpan nn_span("probe.surrogate_nn", "bench");
            Clock::time_point t0 = Clock::now();
            SurrogateDataset ds = generateSurrogateDataset(800, seed);
            report.set("surrogate.dataset_s", secondsSince(t0));
            Clock::time_point t1 = Clock::now();
            probe_model = std::make_unique<LatencyPredictor>(
                    LatencyPredictor::trainCombined(ds, 30, seed));
            report.set("nn.train_s", secondsSince(t1));
            probe_diff = std::make_unique<SurrogateDiffModel>(*probe_model);
            dnn_model = probe_diff.get();

            std::vector<Mapping> maps;
            for (size_t i = 0; i < 64; ++i)
                maps.push_back(randomValidMapping(layers[i % nl], hw, rng,
                        16));
            std::vector<LatencyQuery> queries;
            for (size_t i = 0; i < maps.size(); ++i)
                queries.push_back({&layers[i % nl], &maps[i], &hw});
            std::vector<double> lats(queries.size());
            LatencyScorer scorer = probe_model->scorer();
            constexpr int kCalls = 20;
            Clock::time_point t2 = Clock::now();
            for (int c = 0; c < kCalls; ++c)
                scorer.scoreDesigns(queries, lats);
            report.set("surrogate.score_s", secondsSince(t2));
            report.set("surrogate.score_calls", double(kCalls));
            report.set("surrogate.score_queries",
                    double(kCalls) * double(queries.size()));
        }
        ObjectiveMode dnn_mode;
        dnn_mode.fix_pe = true;
        dnn_mode.pe_dim = 16;
        dnn_mode.latency_model = dnn_model;
        ObjectiveEngine dnn_engine;
        (void)dnn_engine.eval(layers, x0, orders, OrderStrategy::Fixed,
                dnn_mode);
        report.set("core.eval_dnn_us", timePerCall(5, 10, 1e-6, [&](int) {
            g_sink = g_sink + dnn_engine.eval(layers, x0, orders,
                    OrderStrategy::Fixed, dnn_mode).loss;
        }));
    }

    // model, mapping, util.
    {
        obs::TraceSpan span("probe.model_mapping", "bench");
        std::vector<Mapping> maps;
        for (int i = 0; i < 200; ++i)
            maps.push_back(randomValidMapping(layers[size_t(i) % nl], hw,
                    rng, 16));
        report.set("model.reference_us", timePerCall(5, 200, 1e-6,
                [&](int i) {
                    g_sink = g_sink + referenceEval(
                            layers[size_t(i) % nl], maps[size_t(i)], hw)
                            .energy_uj;
                }));
        report.set("mapping.sample_us", timePerCall(5, 200, 1e-6,
                [&](int i) {
                    g_sink = g_sink + double(randomMapping(
                            layers[size_t(i) % nl], rng, 16)
                            .dimProduct(Dim::K));
                }));
        std::vector<Factors<double>> cont;
        for (const Mapping &m : maps) {
            Factors<double> f = m.continuousFactors();
            for (int lv = 0; lv < kNumLevels; ++lv)
                for (int d = 0; d < kNumDims; ++d)
                    f.t(lv, static_cast<Dim>(d)) *= rng.uniformReal(0.8,
                            1.25);
            cont.push_back(f);
        }
        report.set("mapping.round_us", timePerCall(5, 200, 1e-6,
                [&](int i) {
                    size_t k = size_t(i);
                    g_sink = g_sink + double(roundToValid(cont[k],
                            layers[k % nl], maps[k].order, 16)
                            .dimProduct(Dim::C));
                }));
        std::vector<int64_t> dims;
        for (const Layer &l : layers)
            for (int d = 0; d < kNumDims; ++d)
                dims.push_back(l.size(static_cast<Dim>(d)));
        report.set("util.divisors_ns", timePerCall(5, 10000, 1e-9,
                [&](int i) {
                    g_sink = g_sink + double(divisorsOf(
                            dims[size_t(i) % dims.size()]).size());
                }));
    }
}

void
dumpTrace(const Report &report, const std::string &path)
{
    obs::Tracer &tracer = obs::globalTracer();
    tracer.disable();
    if (path.empty())
        return;
    std::string error;
    if (tracer.writeFile(path, error))
        report.line("trace: " + std::to_string(tracer.eventCount()) +
                    " events (" + std::to_string(tracer.droppedCount()) +
                    " dropped) -> " + path);
    else
        report.line("trace: write failed: " + error);
}

void
checkTrace(Report &report, const std::string &what,
           const SearchResult &result, size_t planned)
{
    double minimum = std::numeric_limits<double>::infinity();
    for (double v : result.trace)
        minimum = std::min(minimum, v);
    report.tally.check(result.best_edp == minimum,
            what + ": best_edp " + num(result.best_edp) +
            " != trace minimum " + num(minimum));
    report.tally.check(result.trace.size() == planned,
            what + ": trace length " +
            std::to_string(result.trace.size()) + " != planned " +
            std::to_string(planned));
}

} // namespace e2e
