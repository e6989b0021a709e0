/**
 * @file
 * Google-benchmark microbenchmarks for the hot paths of the DSE
 * stack: reference evaluation, differentiable-model evaluation,
 * objective gradients, rounding, the RTL substitute, random mapping
 * sampling and divisor lookups, and the BB-BO Gaussian-process fit
 * and posterior. These support
 * the paper's premise that model evaluations are cheap enough to use
 * as the inner loop of search.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "bench/common.hh"
#include "core/adam.hh"
#include "core/objective.hh"
#include "gp/gaussian_process.hh"
#include "gp/posterior_kernel.hh"
#include "mapping/rounding.hh"
#include "model/analytical.hh"
#include "model/reference.hh"
#include "rtl/gemmini_rtl.hh"
#include "search/cosa_mapper.hh"
#include "search/search_common.hh"
#include "util/divisors.hh"
#include "util/rng.hh"
#include "workload/model_zoo.hh"

using namespace dosa;

namespace {

const Layer &
benchLayer()
{
    static Layer l = Layer::conv("bench", 3, 28, 128, 128);
    return l;
}

const HardwareConfig kHw{16, 32, 128};

void
BM_ReferenceEval(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    for (auto _ : state) {
        RefEval ev = referenceEval(benchLayer(), m, kHw);
        benchmark::DoNotOptimize(ev.edp);
    }
}
BENCHMARK(BM_ReferenceEval);

void
BM_AnalyticalDouble(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    Factors<double> f = m.continuousFactors();
    for (auto _ : state) {
        LayerCounts<double> c = computeCounts(benchLayer(), f,
                m.order);
        LayerPerf<double> p = computePerf(c, hwScalars<double>(kHw));
        benchmark::DoNotOptimize(p.latency);
    }
}
BENCHMARK(BM_AnalyticalDouble);

void
BM_ObjectiveGradient(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode mode;
    for (auto _ : state) {
        ObjectiveEval ev = evalObjective(layers, x, orders,
                OrderStrategy::Fixed, mode);
        benchmark::DoNotOptimize(ev.grad.data());
    }
}
BENCHMARK(BM_ObjectiveGradient)->Arg(1)->Arg(8)->Arg(24);

/**
 * Steady-state descent step: arena-engine gradient (tape replay +
 * reverse sweep into a reused buffer) plus the Adam update. This is
 * the loop dosaSearch runs thousands of times per start point; the
 * first iteration builds the graph, every later one replays it.
 */
void
BM_GradientStepReplay(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<double> x;
    std::vector<OrderVec> orders;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
        orders.push_back(uniformOrder(LoopOrder::WS));
    }
    ObjectiveMode mode;
    ObjectiveEngine engine;
    Adam adam(x.size(), 1e-5);
    for (auto _ : state) {
        const ObjectiveEval &ev = engine.eval(layers, x, orders,
                OrderStrategy::Fixed, mode);
        adam.step(x, ev.grad);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_GradientStepReplay)->Arg(1)->Arg(8)->Arg(24);

/** Softmax-strategy variant of the steady-state descent step. */
void
BM_GradientStepReplaySoftmax(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 8);
    std::vector<double> x;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    ObjectiveMode mode;
    ObjectiveEngine engine;
    Adam adam(x.size(), 1e-5);
    for (auto _ : state) {
        const ObjectiveEval &ev = engine.eval(layers, x, {},
                OrderStrategy::Softmax, mode);
        adam.step(x, ev.grad);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_GradientStepReplaySoftmax);

/**
 * Batched multi-candidate gradient sweep: value + differentiate
 * `range(1)` descent candidates of a `range(0)`-layer objective in a
 * single lane-blocked `Tape::replayBatch` + `gradientBatchInto`
 * sweep. Compare against BM_ReplayBatchScalarRef (the same
 * candidates through per-candidate scalar replays) for the batch-
 * interpreter speedup.
 */
void
BM_ReplayBatch(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<OrderVec> orders(layers.size(),
            uniformOrder(LoopOrder::WS));
    auto xs = bench::descentCandidates(layers,
            size_t(state.range(1)));
    ObjectiveMode mode;
    ObjectiveEngine engine;
    for (auto _ : state) {
        const std::vector<ObjectiveEval> &evs = engine.evalBatch(
                layers, xs, orders, OrderStrategy::Fixed, mode);
        benchmark::DoNotOptimize(evs.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ReplayBatch)
        ->Args({1, 8})->Args({8, 4})->Args({8, 8})->Args({8, 16})
        ->Args({24, 8});

/** Scalar reference for BM_ReplayBatch: one replay per candidate. */
void
BM_ReplayBatchScalarRef(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + size_t(state.range(0)));
    std::vector<OrderVec> orders(layers.size(),
            uniformOrder(LoopOrder::WS));
    auto xs = bench::descentCandidates(layers,
            size_t(state.range(1)));
    ObjectiveMode mode;
    ObjectiveEngine engine;
    for (auto _ : state) {
        for (const std::vector<double> &x : xs) {
            const ObjectiveEval &ev = engine.eval(layers, x, orders,
                    OrderStrategy::Fixed, mode);
            benchmark::DoNotOptimize(ev.loss);
        }
    }
    state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ReplayBatchScalarRef)
        ->Args({1, 8})->Args({8, 4})->Args({8, 8})->Args({8, 16})
        ->Args({24, 8});

void
BM_ObjectiveGradientSoftmax(benchmark::State &state)
{
    Network net = resnet50();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 8);
    std::vector<double> x;
    for (const Layer &l : layers) {
        auto xl = packMapping(cosaMap(l, kHw));
        x.insert(x.end(), xl.begin(), xl.end());
    }
    ObjectiveMode mode;
    for (auto _ : state) {
        ObjectiveEval ev = evalObjective(layers, x, {},
                OrderStrategy::Softmax, mode);
        benchmark::DoNotOptimize(ev.grad.data());
    }
}
BENCHMARK(BM_ObjectiveGradientSoftmax);

void
BM_Rounding(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    Factors<double> f = m.continuousFactors();
    // Slightly off-grid values so rounding does real work.
    for (int lvl = 0; lvl < kDram; ++lvl)
        for (Dim d : kAllDims)
            f.t(lvl, d) *= 1.17;
    for (auto _ : state) {
        Mapping r = roundToValid(f, benchLayer(),
                uniformOrder(LoopOrder::WS));
        benchmark::DoNotOptimize(r.factors.spatial_c);
    }
}
BENCHMARK(BM_Rounding);

void
BM_RtlSimulator(benchmark::State &state)
{
    Mapping m = cosaMap(benchLayer(), kHw);
    for (auto _ : state) {
        double lat = rtlLatency(benchLayer(), m, kHw);
        benchmark::DoNotOptimize(lat);
    }
}
BENCHMARK(BM_RtlSimulator);

void
BM_CosaMapper(benchmark::State &state)
{
    for (auto _ : state) {
        Mapping m = cosaMap(benchLayer(), kHw);
        benchmark::DoNotOptimize(m.factors.spatial_c);
    }
}
BENCHMARK(BM_CosaMapper);

/**
 * The random mapping sampler as random search and BB-BO call it:
 * rejection-sampled valid mappings over the resnet50 layer mix, one
 * mapping (all its rejected tries included) per iteration.
 */
void
BM_RandomValidMapping(benchmark::State &state)
{
    const std::vector<Layer> layers = resnet50().layers;
    Rng rng(3);
    size_t i = 0;
    for (auto _ : state) {
        Mapping m = randomValidMapping(layers[i], kHw, rng);
        benchmark::DoNotOptimize(m.factors.spatial_c);
        i = (i + 1) % layers.size();
    }
}
BENCHMARK(BM_RandomValidMapping)->Unit(benchmark::kMicrosecond);

/**
 * Memoized divisor lookups (all hits after the first pass) over the
 * resnet50 dimension sizes, from 1 and 4 threads at once: a hit takes
 * no lock, so the per-call time should hold as threads are added.
 */
void
BM_DivisorsOf(benchmark::State &state)
{
    static const std::vector<int64_t> sizes = [] {
        std::vector<int64_t> out;
        for (const Layer &l : resnet50().layers)
            for (Dim d : kAllDims)
                out.push_back(l.size(d));
        return out;
    }();
    size_t i = size_t(state.thread_index()) * 7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(divisorsOf(sizes[i % sizes.size()]));
        ++i;
    }
}
BENCHMARK(BM_DivisorsOf)->Threads(1)->Threads(4);

/**
 * BB-BO-shaped GP data: `n` training rows (encodeFeatures of random
 * valid mappings on random hardware over resnet50 layers, log
 * layer-EDP targets) plus `queries` candidate rows, flat row-major.
 */
struct GpData
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    std::vector<double> queries;
};

GpData
gpData(size_t n, size_t queries)
{
    Network net = resnet50();
    Rng rng(11);
    GpData d;
    for (size_t i = 0; i < n + queries; ++i) {
        const Layer &l = net.layers[i % net.layers.size()];
        HardwareConfig h{rng.uniformInt(4, 32), rng.uniformInt(8, 256),
                rng.uniformInt(32, 512)};
        Mapping m = randomValidMapping(l, h, rng, 16);
        std::vector<double> f = encodeFeatures(l, m, h);
        if (i < n) {
            RefEval ev = referenceEval(l, m, h);
            d.x.push_back(std::move(f));
            d.y.push_back(std::log(std::max(ev.energy_uj * ev.latency,
                    1e-30)));
        } else {
            d.queries.insert(d.queries.end(), f.begin(), f.end());
        }
    }
    return d;
}

/** The GP hyperparameters bayesOptSearch fits with. */
GaussianProcess
boGp()
{
    return GaussianProcess({3.0, 4.0, 1e-2});
}

/** Fit at n = 300 (the codesign workload's training-set size). */
void
BM_GpFit(benchmark::State &state)
{
    GpData d = gpData(300, 0);
    GaussianProcess gp = boGp();
    for (auto _ : state) {
        gp.fit(d.x, d.y);
        benchmark::DoNotOptimize(gp.trainSize());
    }
}
BENCHMARK(BM_GpFit)->Unit(benchmark::kMillisecond);

/** One-row LCB at n = 300: the per-candidate call. */
void
BM_GpLcbOneRow(benchmark::State &state)
{
    GpData d = gpData(300, 1);
    GaussianProcess gp = boGp();
    gp.fit(d.x, d.y);
    for (auto _ : state)
        benchmark::DoNotOptimize(gp.lcb(d.queries, 1.0));
}
BENCHMARK(BM_GpLcbOneRow)->Unit(benchmark::kMicrosecond);

/**
 * Batched LCB of `range(0)` candidates at n = 300 in one call through
 * one posterior kernel: `portable` (2-wide lanes, any CPU) or
 * `dispatched` (what GaussianProcess::lcb runs on this CPU). `per_cand`
 * (time per candidate) is the figure to hold against BM_GpLcbOneRow.
 */
void
BM_GpLcbBatch(benchmark::State &state, gp_detail::Kernel kernel)
{
    const size_t width = size_t(state.range(0));
    GpData d = gpData(300, width);
    GaussianProcess gp = boGp();
    gp.fit(d.x, d.y);
    std::vector<double> out(width);
    for (auto _ : state) {
        gp_detail::Posterior::lcb(gp, kernel, d.queries, 1.0, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_cand"] = benchmark::Counter(
            double(state.iterations()) * double(width),
            benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_GpLcbBatch, portable, gp_detail::portableKernel())
        ->Arg(8)->Arg(32)->Arg(768)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GpLcbBatch, dispatched,
        gp_detail::dispatchedKernel())
        ->Arg(8)->Arg(32)->Arg(768)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
