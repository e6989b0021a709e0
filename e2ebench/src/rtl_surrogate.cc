/**
 * @file
 * Workload `rtl-surrogate`: the paper's Fig. 12 Analytical+DNN set-up.
 * Set-up generates the 800-point surrogate dataset and trains the
 * combined `LatencyPredictor` for 300 epochs; then DOSA searches
 * resnet50 and bert with the PE array frozen at 16x16, the MLP on the
 * autodiff tape (`SurrogateDiffModel`) and the predictor's scorer
 * ranking rounded designs (4 starts x 900 steps, jobs = 2). The found
 * designs are scored as RTL EDP against Gemmini default + CoSA.
 */

#include <atomic>
#include <memory>

#include "workloads.hh"

#include <cmath>

#include "util/logging.hh"

#include "arch/baselines.hh"
#include "exec/eval_cache.hh"
#include "core/dosa_optimizer.hh"
#include "model/reference.hh"
#include "rtl/gemmini_rtl.hh"
#include "search/cosa_mapper.hh"
#include "surrogate/dataset.hh"
#include "surrogate/latency_predictor.hh"
#include "workload/workload_registry.hh"

namespace e2e {

using namespace dosa;

namespace {

const char *const kNets[] = {"resnet50", "bert"};
constexpr int kDatasetSize = 800;
constexpr int kEpochs = 300;
constexpr int kStarts = 4;
constexpr int kSteps = 900;
constexpr int kSetups = 3;
constexpr double kPaperGain = 1.82;

/** Network EDP with RTL-substitute latency and reference energy. */
double
rtlEdp(const std::vector<Layer> &layers, const std::vector<Mapping> &maps,
       const HardwareConfig &hw)
{
    double e = 0.0, lat = 0.0;
    for (size_t i = 0; i < layers.size(); ++i) {
        double cnt = static_cast<double>(layers[i].count);
        e += cnt * referenceEval(layers[i], maps[i], hw).energy_uj;
        lat += cnt * rtlLatency(layers[i], maps[i], hw);
    }
    return e * lat;
}

/** Everything the set-up produces. */
struct Setup
{
    double dataset_s = 0.0;
    double train_s = 0.0;
    std::unique_ptr<LatencyPredictor> predictor;
    std::unique_ptr<SurrogateDiffModel> diff;
    std::vector<Network> nets;
    std::vector<double> default_rtl_edp; ///< Gemmini default + CoSA
};

Setup
setUp(uint64_t seed)
{
    Setup s;
    Clock::time_point t0 = Clock::now();
    SurrogateDataset train = generateSurrogateDataset(kDatasetSize, seed);
    s.dataset_s = secondsSince(t0);
    Clock::time_point t1 = Clock::now();
    s.predictor = std::make_unique<LatencyPredictor>(
            LatencyPredictor::trainCombined(train, kEpochs, seed));
    s.train_s = secondsSince(t1);
    s.diff = std::make_unique<SurrogateDiffModel>(*s.predictor);
    const HardwareConfig def = gemminiDefault().config;
    for (const char *name : kNets) {
        const Network *net = Workloads::find(name);
        if (net == nullptr)
            fatal(std::string("rtl-surrogate: workload ") + name +
                  " is not registered");
        s.nets.push_back(*net);
        std::vector<Mapping> maps;
        for (const Layer &l : net->layers)
            maps.push_back(cosaMap(l, def));
        s.default_rtl_edp.push_back(rtlEdp(net->layers, maps, def));
    }
    return s;
}

/**
 * Timing wrapper around the predictor's own scorer: the same point
 * and bulk functions run, so results are identical; it counts calls,
 * queries and busy seconds and records a bench span per batch.
 */
struct ScorerTiming
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> ns{0};

    LatencyScorer
    wrap(LatencyScorer inner)
    {
        auto shared = std::make_shared<LatencyScorer>(std::move(inner));
        auto point = [this, shared](const Layer &l, const Mapping &m,
                             const HardwareConfig &hw) {
            Clock::time_point t0 = Clock::now();
            double v = (*shared)(l, m, hw);
            account(t0, 1);
            return v;
        };
        auto batch = [this, shared](std::span<const LatencyQuery> q,
                             std::span<double> out) {
            obs::TraceSpan span("bench.score", "bench",
                    int64_t(q.size()));
            Clock::time_point t0 = Clock::now();
            shared->scoreDesigns(q, out);
            account(t0, q.size());
        };
        return LatencyScorer::batched(point, batch);
    }

    void
    account(Clock::time_point t0, size_t n)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(n, std::memory_order_relaxed);
        ns.fetch_add(uint64_t(std::chrono::duration_cast<
                std::chrono::nanoseconds>(Clock::now() - t0).count()),
                std::memory_order_relaxed);
    }
};

struct PassResult
{
    double wall_s = 0.0;
    size_t samples = 0;
    std::vector<double> best_edp;
    std::vector<double> rtl_edp;
    double gain = 0.0;
};

PassResult
runPass(Report &report, const Setup &s, uint64_t seed,
        const LatencyScorer &scorer, PhaseTimer *timer)
{
    globalEvalCache().clear();
    globalEvalCache().resetStats();
    PassResult pass;
    std::vector<SearchResult> results;
    Clock::time_point t0 = Clock::now();
    for (const Network &net : s.nets) {
        obs::TraceSpan span("bench.runSearch", "bench");
        SearchSpec spec;
        spec.algorithm = "dosa";
        spec.workload = net.layers;
        spec.jobs = 2;
        spec.seed = seed;
        spec.options.set("start_points", kStarts)
                .set("steps_per_start", kSteps)
                .set("round_every", 300);
        spec.mode.fix_pe = true;
        spec.mode.pe_dim = 16;
        spec.mode.latency_model = s.diff.get();
        spec.scorer = scorer;
        if (timer != nullptr)
            timer->begin("dosa");
        Clock::time_point s0 = Clock::now();
        SearchReport r = runSearch(spec, timer);
        if (timer != nullptr)
            timer->addWall("dosa", secondsSince(s0));
        results.push_back(std::move(r.search));
    }
    pass.wall_s = secondsSince(t0);

    std::vector<double> gains;
    for (size_t i = 0; i < s.nets.size(); ++i) {
        const SearchResult &res = results[i];
        const std::string what = s.nets[i].name + "/dosa+dnn";
        pass.samples += res.trace.size();
        checkTrace(report, what, res,
                size_t(kStarts) * size_t(kSteps + 1));
        // Re-score the installed design with the search's own scorer
        // (predicted latency, reference energy): it must reproduce
        // best_edp. The RTL EDP is then recomputed independently.
        NetworkEval ev = scoreDesign(s.nets[i].layers, res.best_mappings,
                res.best_hw, s.predictor->scorer());
        report.tally.check(ev.edp == res.best_edp,
                what + ": installed design re-scores to " + num(ev.edp) +
                " != best_edp " + num(res.best_edp));
        double rtl = rtlEdp(s.nets[i].layers, res.best_mappings,
                res.best_hw);
        report.tally.check(std::isfinite(rtl) && rtl > 0.0 &&
                                   res.best_hw.pe_dim == 16,
                what + ": RTL EDP " + num(rtl) + " of the found design");
        pass.best_edp.push_back(res.best_edp);
        pass.rtl_edp.push_back(rtl);
        gains.push_back(s.default_rtl_edp[i] / rtl);
    }
    pass.gain = geomean(gains);
    return pass;
}

void
checkRepeat(Report &report, const PassResult &a, const PassResult &b,
            const std::string &what)
{
    report.tally.check(a.best_edp == b.best_edp && a.rtl_edp == b.rtl_edp,
            what + ": a repeated pass changed the search results");
}

void
printFidelity(const Report &report, const PassResult &p)
{
    report.line("fidelity: rtl_edp_gain = " + num(p.gain) +
                "x over Gemmini default + CoSA (paper " +
                fixed(kPaperGain) + "x for Analytical+DNN)");
    report.line("note: the RTL latency is the repo's Gemmini-RTL "
                "substitute model, unvalidated against hardware (the "
                "repo holds no reference measurements)");
}

} // namespace

int
runRtlSurrogate(const Args &args)
{
    Report report(args.trace);
    report.line(fingerprint(args.seed));

    // Set-up several times; the median is the set-up time and the
    // last one serves the searches (every set-up is deterministic).
    std::vector<double> setups, datasets, trains;
    Setup s;
    for (int i = 0; i < kSetups; ++i) {
        Clock::time_point t0 = Clock::now();
        s = setUp(args.seed);
        setups.push_back(secondsSince(t0));
        datasets.push_back(s.dataset_s);
        trains.push_back(s.train_s);
    }
    report.line("set-up: median " + fixed(median(setups), 3) +
                " s (dataset " + fixed(median(datasets), 3) +
                " s, training " + fixed(median(trains), 3) + " s)");

    if (!args.trace) {
        report.set("setup_s", median(setups));
        std::vector<double> walls, rates;
        PassResult first;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i == 0 || secondsSince(t0) < args.seconds; ++i) {
            PassResult p = runPass(report, s, args.seed,
                    s.predictor->scorer(), nullptr);
            report.line("pass " + std::to_string(i) + ": wall_s = " +
                        fixed(p.wall_s, 3) + ", samples = " +
                        std::to_string(p.samples));
            walls.push_back(p.wall_s);
            rates.push_back(double(p.samples) / p.wall_s);
            if (i == 0)
                first = std::move(p);
            else
                checkRepeat(report, first, p, "rtl-surrogate");
        }
        printFidelity(report, first);
        report.set("wall_s", median(walls));
        report.set("samples_per_s", median(rates));
        report.set("peak_rss_mb", peakRssMb());
        return report.finish();
    }

    report.set("surrogate.dataset_s", median(datasets));
    report.set("nn.train_s", median(trains));
    PassResult plain = runPass(report, s, args.seed, s.predictor->scorer(),
            nullptr);
    obs::globalTracer().enable();
    PhaseTimer timer;
    ScorerTiming timing;
    auto before = counterSnapshot();
    PassResult traced = runPass(report, s, args.seed,
            timing.wrap(s.predictor->scorer()), &timer);
    auto after = counterSnapshot();
    checkRepeat(report, plain, traced, "rtl-surrogate traced");
    report.tally.check(plain.gain == traced.gain,
            "rtl-surrogate: rtl_edp_gain differs between traced and "
            "untraced passes");
    printFidelity(report, traced);
    report.set("rtl_edp_gain", traced.gain);
    reportPhases(report, timer);
    reportCounters(report, before, after);
    report.set("surrogate.score_calls", double(timing.calls.load()));
    report.set("surrogate.score_queries", double(timing.queries.load()));
    report.set("surrogate.score_s", double(timing.ns.load()) * 1e-9);
    report.set("obs.trace_overhead_pct",
            (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0);
    runLayerProbes(report, s.nets[0].layers, s.diff.get(), args.seed);
    dumpTrace(report, args.trace_out);
    return report.finish();
}

} // namespace e2e
