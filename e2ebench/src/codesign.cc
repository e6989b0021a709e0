/**
 * @file
 * Workload `codesign`: the paper's Fig. 7 experiment on resnet50 and
 * bert — DOSA, random search and BB-BO, one `runSearch` each per
 * network, one after another (closed loop, jobs = 1), at today's
 * `bench_fig7 --quick` option sets. The eval cache is cleared before
 * every pass, so each pass starts cold like a fresh process.
 */

#include "workloads.hh"

#include <cmath>

#include "util/logging.hh"

#include "exec/eval_cache.hh"
#include "model/reference.hh"
#include "workload/workload_registry.hh"

namespace e2e {

using namespace dosa;

namespace {

const char *const kNets[] = {"resnet50", "bert"};
const char *const kAlgos[] = {"dosa", "random", "bayesopt"};
constexpr size_t kNumAlgos = 3;

// bench_fig7 --quick cells.
constexpr int kStarts = 5;
constexpr int kSteps = 600;
constexpr int kSamples = kStarts * (kSteps + 1); // 3005
constexpr int kBoTotal = 80;
constexpr int kSetupBatch = 500;

/** Paper figures printed beside the measured ratios (Fig. 7). */
constexpr double kPaperVsRandom = 2.80;
constexpr double kPaperVsBayesopt = 12.59;

struct Cell
{
    std::string net;
    std::string algo;
    SearchSpec spec;
    size_t planned = 0;
};

/** The generated specs: everything the searches get. */
std::vector<Cell>
makeCells(uint64_t seed)
{
    std::vector<Cell> cells;
    for (const char *net_name : kNets) {
        const Network *net = Workloads::find(net_name);
        if (net == nullptr)
            fatal(std::string("codesign: workload ") + net_name +
                  " is not registered");
        for (const char *algo : kAlgos) {
            Cell c;
            c.net = net_name;
            c.algo = algo;
            c.spec.algorithm = algo;
            c.spec.workload = net->layers;
            c.spec.seed = seed;
            c.spec.jobs = 1;
            c.spec.budget.max_samples = kSamples;
            c.planned = kSamples;
            if (c.algo == "dosa") {
                c.spec.options.set("start_points", kStarts)
                        .set("steps_per_start", kSteps)
                        .set("round_every", 300);
            } else if (c.algo == "random") {
                c.spec.options.set("hw_designs", 5);
            } else {
                c.spec.options.set("warmup_samples", 20)
                        .set("total_samples", kBoTotal)
                        .set("hw_candidates", 4)
                        .set("map_candidates", 8)
                        .set("max_train_points", 300);
                c.planned = kBoTotal;
            }
            std::string error;
            if (!validateSpec(c.spec, error))
                fatal("codesign: " + error);
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

struct PassResult
{
    double wall_s = 0.0;
    size_t samples = 0;
    std::vector<SearchResult> results; ///< per cell
    double vs_random = 0.0;
    double vs_bayesopt = 0.0;
};

/** One pass over every cell, checking each search's outputs. */
PassResult
runPass(Report &report, const std::vector<Cell> &cells, PhaseTimer *timer)
{
    globalEvalCache().clear();
    globalEvalCache().resetStats();
    PassResult pass;
    Clock::time_point t0 = Clock::now();
    for (const Cell &c : cells) {
        obs::TraceSpan span("bench.runSearch", "bench");
        if (timer != nullptr)
            timer->begin(c.algo);
        Clock::time_point s0 = Clock::now();
        SearchReport r = runSearch(c.spec, timer);
        if (timer != nullptr)
            timer->addWall(c.algo, secondsSince(s0));
        pass.samples += r.search.trace.size();
        pass.results.push_back(std::move(r.search));
    }
    pass.wall_s = secondsSince(t0);

    std::vector<double> vs_random, vs_bo;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const SearchResult &res = pass.results[i];
        const std::string what = c.net + "/" + c.algo;
        checkTrace(report, what, res, c.planned);
        NetworkEval ev = referenceNetworkEval(c.spec.workload,
                res.best_mappings, res.best_hw);
        report.tally.check(ev.edp == res.best_edp,
                what + ": installed design re-scores to " + num(ev.edp) +
                " != best_edp " + num(res.best_edp));
    }
    for (size_t n = 0; n < cells.size(); n += kNumAlgos) {
        const auto &dosa = pass.results[n].trace;
        double r = matchedRatio(pass.results[n + 1].trace, dosa,
                size_t(kSamples) - 1);
        double b = matchedRatio(pass.results[n + 2].trace, dosa,
                size_t(kBoTotal) - 1);
        report.tally.check(std::isfinite(r) && std::isfinite(b),
                cells[n].net + ": matched-index ratio undefined");
        vs_random.push_back(r);
        vs_bo.push_back(b);
    }
    pass.vs_random = geomean(vs_random);
    pass.vs_bayesopt = geomean(vs_bo);
    return pass;
}

/** Every repeat of a pass must reproduce the first bit for bit. */
void
checkRepeat(Report &report, const PassResult &first, const PassResult &again,
            const std::string &what)
{
    bool same = first.results.size() == again.results.size();
    for (size_t i = 0; same && i < first.results.size(); ++i)
        same = first.results[i].trace == again.results[i].trace &&
               first.results[i].best_edp == again.results[i].best_edp;
    report.tally.check(same, what + ": a repeated pass changed the "
                                     "search results");
}

void
printFidelity(const Report &report, const PassResult &p)
{
    report.line("fidelity (matched samples): edp_dosa_vs_random = " +
                num(p.vs_random) + "x at sample " +
                std::to_string(kSamples) + " (paper " +
                fixed(kPaperVsRandom) + "x at ~10k), " +
                "edp_dosa_vs_bayesopt = " + num(p.vs_bayesopt) +
                "x at sample " + std::to_string(kBoTotal) + " (paper " +
                fixed(kPaperVsBayesopt) + "x at ~10k)");
    report.line("note: EDP comes from the repo's analytical/reference "
                "model, unvalidated against hardware (the repo holds "
                "no reference measurements)");
}

} // namespace

int
runCodesign(const Args &args)
{
    Report report(args.trace);
    report.line(fingerprint(args.seed));
    std::vector<Cell> cells = makeCells(args.seed);

    if (!args.trace) {
        std::vector<double> setups, walls, rates;
        PassResult first;
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i == 0 || secondsSince(t0) < args.seconds; ++i) {
            // Set-up (resolve the workloads, build and validate the
            // specs) takes microseconds: it is timed as a batch before
            // every pass, so its median spans the whole run rather than
            // the run's first milliseconds.
            Clock::time_point s0 = Clock::now();
            for (int b = 0; b < kSetupBatch; ++b)
                (void)makeCells(args.seed);
            setups.push_back(secondsSince(s0) / kSetupBatch);
            PassResult p = runPass(report, cells, nullptr);
            report.line("pass " + std::to_string(i) + ": wall_s = " +
                        fixed(p.wall_s, 3) + ", samples = " +
                        std::to_string(p.samples));
            walls.push_back(p.wall_s);
            rates.push_back(double(p.samples) / p.wall_s);
            if (i == 0)
                first = std::move(p);
            else
                checkRepeat(report, first, p, "codesign");
        }
        printFidelity(report, first);
        report.set("setup_s", median(setups));
        report.set("wall_s", median(walls));
        report.set("samples_per_s", median(rates));
        report.set("peak_rss_mb", peakRssMb());
        return report.finish();
    }

    // Traced run: one untraced pass, then the same pass traced.
    PassResult plain = runPass(report, cells, nullptr);
    obs::globalTracer().enable();
    PhaseTimer timer;
    auto before = counterSnapshot();
    PassResult traced = runPass(report, cells, &timer);
    auto after = counterSnapshot();
    checkRepeat(report, plain, traced, "codesign traced");
    report.tally.check(plain.vs_random == traced.vs_random &&
                       plain.vs_bayesopt == traced.vs_bayesopt,
            "codesign: EDP metrics differ between traced and untraced "
            "passes");
    printFidelity(report, traced);
    report.set("edp_dosa_vs_random", traced.vs_random);
    report.set("edp_dosa_vs_bayesopt", traced.vs_bayesopt);
    reportPhases(report, timer);
    reportCounters(report, before, after);
    report.set("obs.trace_overhead_pct",
            (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0);
    runLayerProbes(report, cells[0].spec.workload, nullptr, args.seed);
    dumpTrace(report, args.trace_out);
    return report.finish();
}

} // namespace e2e
