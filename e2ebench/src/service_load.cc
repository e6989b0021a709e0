/**
 * @file
 * Workload `service`: one `SearchService` (max_concurrent 2) behind a
 * `TcpServer` on loopback, driven by this process's load generator
 * over 2 TCP connections. Requests are `mapper` searches on the
 * two-layer golden workload and `random` searches on bert (200
 * samples each), plus a `stats` request every 10th.
 *
 *  - closed-loop bursts (at most kInflightCap requests outstanding)
 *    measure capacity as search samples per second;
 *  - an open-loop ladder of frozen arrival rates measures latency,
 *    each request timed from when it was due.
 *
 * Every `done` frame must carry its request's id and sample count and
 * reproduce the best EDP of a direct `runSearch` of the same spec.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "workloads.hh"

#include "exec/eval_cache.hh"
#include "service/search_service.hh"
#include "service/tcp_server.hh"
#include "service/wire.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/workload_registry.hh"

namespace e2e {

using namespace dosa;

namespace {

constexpr int kMaxConcurrent = 2;
constexpr int kSetupReps = 3;
constexpr int kConnections = 2;
constexpr int kSamples = 200;
constexpr size_t kStatsEvery = 10;
/** Distinct search specs (half mapper, half random) requests draw
 *  from; each is also run directly once, as the reference. */
constexpr size_t kDistinctSpecs = 32;
/** Closed-loop bursts: requests per burst, the least number of
 *  bursts, and the in-flight cap (below the service's max_queue, so
 *  nothing is refused). Bursts repeat for kBurstShare of --seconds. */
constexpr size_t kBurstRequests = 96;
constexpr int kMinBursts = 5;
constexpr size_t kInflightCap = 12;
constexpr double kBurstShare = 0.3;
/**
 * The frozen open-loop ladder (requests/s over both connections),
 * chosen once from the closed-loop capacity measured on a shared
 * 4-core host: about 130 searches/s. The top rung (90 searches/s plus
 * 10 stats/s) stays near 70% of it, so that a slow phase of the host
 * does not overflow the service queue (16) into refused requests. The
 * nominal rung is the one `wall_s` and `request_*` report.
 */
constexpr double kLadder[] = {30.0, 60.0, 80.0, 100.0};
constexpr size_t kNominal = 1;
/** Latency limit on a rung's tail percentile (search requests). */
constexpr double kLimitMs = 250.0;
/** Longest wait for an outstanding reply. */
constexpr std::chrono::seconds kDrainTimeout{20};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch()).count();
}

/** The distinct search specs requests draw from, and their direct
 *  `runSearch` results. */
struct SpecPool
{
    std::vector<SearchSpec> specs;
    std::vector<std::string> names;
    std::vector<double> direct_best;
};

SpecPool
makePool(uint64_t seed)
{
    const Network *bert = Workloads::find("bert");
    if (bert == nullptr)
        fatal("service: workload bert is not registered");
    const std::vector<Layer> golden = {
        Layer::gemm("a", 128, 64, 256),
        Layer::conv("b", 3, 16, 32, 64),
    };
    Rng rng(seed);
    SpecPool pool;
    for (size_t i = 0; i < kDistinctSpecs; ++i) {
        SearchSpec spec;
        bool mapper = i % 2 == 0;
        spec.algorithm = mapper ? "mapper" : "random";
        spec.workload = mapper ? golden : bert->layers;
        spec.seed = uint64_t(rng.uniformInt(1, 1 << 30));
        spec.budget.max_samples = kSamples;
        if (mapper)
            spec.options.set("samples", kSamples);
        std::string error;
        if (!validateSpec(spec, error))
            fatal("service: " + error);
        pool.names.push_back(spec.algorithm + "#" +
                             std::to_string(spec.seed));
        pool.specs.push_back(std::move(spec));
    }
    return pool;
}

/** One planned request. */
struct Planned
{
    std::string id;
    bool stats = false;
    size_t spec = 0;
    std::string line; ///< encoded request, built before timing
};

/** One request's observed outcome. */
struct Outcome
{
    int64_t due_ns = 0;   ///< written by the sender (closed loop: = sent)
    int64_t sent_ns = 0;
    int64_t first_ns = 0; ///< the rest by the connection's reader
    int64_t done_ns = 0;
    size_t frames = 0;
    bool terminal = false;
    bool ok = false;
    bool send_failed = false; ///< written by the sender
    std::string error;
};

/** The mix: every 10th request is `stats`, the rest alternate specs
 *  in a seeded order. */
std::vector<Planned>
makePlan(const SpecPool &pool, size_t n, Rng &rng, const std::string &tag,
         bool with_stats)
{
    std::vector<Planned> plan(n);
    for (size_t k = 0; k < n; ++k) {
        Planned &p = plan[k];
        p.id = tag + "." + std::to_string(k);
        p.stats = with_stats && k % kStatsEvery == kStatsEvery - 1;
        p.spec = size_t(rng.uniformInt(0, int64_t(pool.specs.size()) - 1));
        p.line = p.stats ? service::encodeStatsRequest(p.id)
                         : service::encodeSearchRequest(p.id,
                                   pool.specs[p.spec]);
    }
    return plan;
}

/** The service plus its transport, started on an ephemeral port. */
struct Server
{
    service::SearchService svc;
    service::TcpServer tcp;

    Server() : svc(config()), tcp(svc, 0)
    {
        std::string error;
        if (!tcp.start(error))
            fatal("service: tcp server: " + error);
    }

    ~Server()
    {
        tcp.stop();
        svc.shutdown();
    }

    static service::ServiceConfig
    config()
    {
        service::ServiceConfig c;
        c.max_concurrent = kMaxConcurrent;
        return c;
    }
};

/**
 * Two client connections plus one reader thread each; `run` sends a
 * plan (open loop on due times, or closed loop under an in-flight
 * cap) and collects every reply frame.
 */
class ClientPair
{
  public:
    ClientPair(Server &server, const SpecPool &pool, std::vector<Planned> plan)
        : server_(server), pool_(pool), plan_(std::move(plan)),
          out_(plan_.size())
    {
        for (int c = 0; c < kConnections; ++c) {
            std::string error;
            if (!clients_[c].connect("127.0.0.1", server.tcp.port(), error))
                fatal("service: connect: " + error);
        }
    }

    ClientPair(const ClientPair &) = delete;
    ClientPair &operator=(const ClientPair &) = delete;

    /** Reply lines that did not decode or match a request. */
    uint64_t protocolErrors() const { return protocol_errors_.load(); }

    /**
     * Send the plan — open loop at `rate` requests/s when rate > 0,
     * else closed loop under `inflight_cap` — and wait for every
     * reply. After the drain timeout the server is stopped, which
     * unblocks the readers; the missing replies count as failed.
     */
    std::vector<Outcome>
    run(double rate, size_t inflight_cap)
    {
        for (int c = 0; c < kConnections; ++c) {
            // Request k goes out on connection k % kConnections.
            size_t mine = (plan_.size() + kConnections - 1 - size_t(c)) /
                          kConnections;
            readers_[c] = std::thread([this, c, mine] { readLoop(c, mine); });
        }
        const int64_t start_ns = nowNs();
        for (size_t k = 0; k < plan_.size(); ++k) {
            Outcome &o = out_[k];
            if (rate > 0.0) {
                o.due_ns = dueNs(start_ns, rate, k);
                std::this_thread::sleep_until(Clock::time_point(
                        std::chrono::nanoseconds(o.due_ns)));
            } else {
                // A reply that never comes stops the burst here; the
                // unsent requests then count as failed.
                std::unique_lock<std::mutex> lock(mtx_);
                if (!cv_.wait_for(lock, kDrainTimeout,
                            [&] { return k - done_ < inflight_cap; }))
                    break;
            }
            obs::TraceSpan span("bench.send", "bench", int64_t(k));
            o.sent_ns = nowNs();
            if (rate <= 0.0)
                o.due_ns = o.sent_ns;
            if (!clients_[k % kConnections].sendLine(plan_[k].line))
                o.send_failed = true;
        }
        {
            std::unique_lock<std::mutex> lock(mtx_);
            bool drained = cv_.wait_for(lock, kDrainTimeout,
                    [&] { return done_ == plan_.size(); });
            if (!drained) {
                lock.unlock();
                server_.tcp.stop();
            }
        }
        for (std::thread &t : readers_)
            t.join();
        for (service::TcpClient &c : clients_)
            c.close();
        return std::move(out_);
    }

  private:
    void
    readLoop(int c, size_t expected)
    {
        std::string line, error;
        size_t seen = 0;
        while (seen < expected && clients_[c].receiveLine(line)) {
            int64_t now = nowNs();
            service::Frame f;
            if (!service::decodeFrame(line, f, error)) {
                protocol_errors_.fetch_add(1);
                continue;
            }
            size_t dot = f.id.rfind('.');
            size_t k = dot == std::string::npos
                    ? plan_.size()
                    : size_t(std::strtoull(f.id.c_str() + dot + 1,
                              nullptr, 10));
            if (k >= plan_.size() || k % kConnections != size_t(c) ||
                    plan_[k].id != f.id) {
                protocol_errors_.fetch_add(1);
                continue;
            }
            Outcome &o = out_[k];
            ++o.frames;
            if (o.first_ns == 0)
                o.first_ns = now;
            using Kind = service::Frame::Kind;
            if (f.kind != Kind::Done && f.kind != Kind::Stats &&
                    f.kind != Kind::Error)
                continue;
            o.done_ns = now;
            o.terminal = true;
            const Planned &p = plan_[k];
            if (f.kind == Kind::Error) {
                o.error = f.code + ": " + f.message;
            } else if (p.stats) {
                o.ok = f.kind == Kind::Stats;
            } else if (f.kind != Kind::Done ||
                       f.samples != uint64_t(kSamples)) {
                o.error = "done frame with " + std::to_string(f.samples) +
                          " samples";
            } else if (f.best_edp != pool_.direct_best[p.spec]) {
                o.error = "best_edp " + num(f.best_edp) +
                          " != direct runSearch " +
                          num(pool_.direct_best[p.spec]);
            } else {
                o.ok = true;
            }
            ++seen;
            {
                std::lock_guard<std::mutex> lock(mtx_);
                ++done_;
            }
            cv_.notify_all();
        }
    }

    Server &server_;
    const SpecPool &pool_;
    const std::vector<Planned> plan_;
    std::vector<Outcome> out_;
    service::TcpClient clients_[kConnections];
    std::mutex mtx_;
    std::condition_variable cv_;
    size_t done_ = 0; ///< guarded by mtx_
    std::atomic<uint64_t> protocol_errors_{0};
    std::thread readers_[kConnections];
};

/** Ping every connection once: the server is ready to serve. */
void
pingAll(uint16_t port)
{
    for (int c = 0; c < kConnections; ++c) {
        service::TcpClient client;
        std::string error, line;
        if (!client.connect("127.0.0.1", port, error) ||
                !client.sendLine(service::encodePingRequest("p")) ||
                !client.receiveLine(line))
            fatal("service: ping failed " + error);
    }
}

/** Summary of one rung or burst. */
struct Phase
{
    std::vector<double> search_ms; ///< from due
    std::vector<double> stats_ms;
    std::vector<double> first_frame_ms;
    std::vector<double> lag_ms;
    int64_t first_due_ns = 0;
    int64_t last_done_ns = 0;
    size_t sent = 0, succeeded = 0, failed = 0, searches = 0;
    size_t frames = 0; ///< reply frames of search requests
    bool growing_backlog = false;
};

Phase
summarize(Report &report, const std::vector<Planned> &plan,
          const std::vector<Outcome> &out, uint64_t protocol_errors,
          const std::string &what)
{
    Phase ph;
    ph.first_due_ns = out.empty() ? 0 : out[0].due_ns;
    for (size_t k = 0; k < plan.size(); ++k) {
        const Outcome &o = out[k];
        const RequestTiming t{o.due_ns, o.sent_ns, o.done_ns};
        ++ph.sent;
        ph.lag_ms.push_back(t.lagMs());
        bool ok = report.tally.check(o.ok && !o.send_failed, what +
                " request " + std::to_string(k) + ": " +
                (o.send_failed ? "send failed"
                 : o.terminal  ? o.error
                               : "no terminal frame"));
        ok ? ++ph.succeeded : ++ph.failed;
        if (!ok)
            continue;
        ph.last_done_ns = std::max(ph.last_done_ns, o.done_ns);
        if (plan[k].stats) {
            ph.stats_ms.push_back(t.latencyMs());
        } else {
            ++ph.searches;
            ph.frames += o.frames;
            ph.search_ms.push_back(t.latencyMs());
            ph.first_frame_ms.push_back(double(o.first_ns - o.due_ns) * 1e-6);
        }
    }
    report.tally.check(protocol_errors == 0, what + ": " +
            std::to_string(protocol_errors) + " undecodable or "
            "uncorrelated frames");
    // A backlog that keeps growing shows as latency climbing through
    // the rung: compare the last quarter's median with the first's.
    size_t q = ph.search_ms.size() / 4;
    if (q >= 5) {
        std::vector<double> head(ph.search_ms.begin(),
                ph.search_ms.begin() + std::ptrdiff_t(q));
        std::vector<double> tail(ph.search_ms.end() - std::ptrdiff_t(q),
                ph.search_ms.end());
        ph.growing_backlog = median(tail) > 2.0 * median(head) + 10.0;
    }
    return ph;
}

std::string
tailText(const std::vector<double> &v)
{
    Tail t = tailPercentile(v);
    if (t.percentile == 0.0)
        return "no tail (n=" + std::to_string(t.n) + ")";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "p%g=%.2f ms (n=%zu, %zu beyond)",
            t.percentile, t.value, t.n, t.beyond);
    return buf;
}

/** One open-loop rung: its rate, plan and summary. */
struct Rung
{
    double rate = 0.0;
    std::vector<Planned> plan;
    Phase phase;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool passed = false;
};

Rung
runRung(Report &report, Server &server, const SpecPool &pool, Rng &rng,
        size_t index, double seconds)
{
    Rung rung;
    rung.rate = kLadder[index];
    size_t n = std::max<size_t>(20, size_t(rung.rate * seconds));
    const std::string tag = "r" + std::to_string(index);
    rung.plan = makePlan(pool, n, rng, tag, true);
    ClientPair pair(server, pool, rung.plan);
    rung.start_ns = nowNs();
    std::vector<Outcome> out = pair.run(rung.rate, 0);
    rung.end_ns = nowNs();
    rung.phase = summarize(report, rung.plan, out,
            pair.protocolErrors(), "service rung " + tag);
    Tail tail = tailPercentile(rung.phase.search_ms);
    rung.passed = rung.phase.failed == 0 && tail.percentile > 0.0 &&
                  tail.value <= kLimitMs && !rung.phase.growing_backlog;
    report.line("rung " + std::to_string(index) + ": " +
                fixed(rung.rate, 0) + " req/s, " +
                std::to_string(rung.phase.sent) + " sent, search p50 " +
                fixed(median(rung.phase.search_ms)) + " ms, " +
                tailText(rung.phase.search_ms) + ", stats p50 " +
                fixed(median(rung.phase.stats_ms)) + " ms, lag max " +
                fixed(*std::max_element(rung.phase.lag_ms.begin(),
                        rung.phase.lag_ms.end())) + " ms" +
                (rung.phase.growing_backlog ? ", GROWING BACKLOG" : "") +
                (rung.passed ? " -> meets" : " -> misses") + " the " +
                fixed(kLimitMs, 0) + " ms limit");
    return rung;
}

/** Rung durations: the nominal rung gets twice the others' share. */
double
rungSeconds(size_t index, double total)
{
    double shares = double(std::size(kLadder)) + 1.0;
    return total / shares * (index == kNominal ? 2.0 : 1.0);
}

/** Highest ladder rate whose rung met the limit (0 = none). */
double
maxRate(const std::vector<Rung> &rungs)
{
    double best = 0.0;
    for (const Rung &r : rungs)
        if (r.passed)
            best = std::max(best, r.rate);
    return best;
}

/** Closed-loop bursts: search samples served per second (median). */
double
burstRate(Report &report, Server &server, const SpecPool &pool, Rng &rng,
          double seconds)
{
    std::vector<double> rates;
    Clock::time_point t0 = Clock::now();
    for (int b = 0; b < kMinBursts || secondsSince(t0) < seconds; ++b) {
        std::vector<Planned> plan = makePlan(pool, kBurstRequests, rng,
                "b" + std::to_string(b), false);
        ClientPair pair(server, pool, plan);
        std::vector<Outcome> out = pair.run(0.0, kInflightCap);
        Phase ph = summarize(report, plan, out, pair.protocolErrors(),
                "service burst " + std::to_string(b));
        double makespan = double(ph.last_done_ns - ph.first_due_ns) * 1e-9;
        rates.push_back(double(ph.searches * size_t(kSamples)) / makespan);
        report.line("burst " + std::to_string(b) + ": " +
                    std::to_string(ph.searches) + " searches in " +
                    fixed(makespan, 3) + " s");
    }
    return median(rates);
}

/** Durations (ms) of the in-program service and phase spans that
 *  start inside a window; server_ms pairs each job's queue and run
 *  spans on its worker thread. */
struct ServerSpans
{
    std::vector<double> queue_ms, run_ms, server_ms, setup_ms;
};

ServerSpans
serverSpans(int64_t start_ns, int64_t end_ns)
{
    obs::Tracer &tracer = obs::globalTracer();
    const double lo = double(tracer.sinceEpochNs(Clock::time_point(
            std::chrono::nanoseconds(start_ns)))) * 1e-3;
    const double hi = double(tracer.sinceEpochNs(Clock::time_point(
            std::chrono::nanoseconds(end_ns)))) * 1e-3;
    ServerSpans out;
    json::Value doc = tracer.toJson();
    const json::Value *events = doc.find("traceEvents");
    if (events == nullptr)
        return out;
    std::map<int64_t, double> last_queue; // tid -> queue ms
    for (const json::Value &ev : events->elements()) {
        const json::Value *name = ev.find("name");
        const json::Value *ts = ev.find("ts");
        const json::Value *dur = ev.find("dur");
        const json::Value *tid = ev.find("tid");
        if (name == nullptr || ts == nullptr || dur == nullptr ||
                tid == nullptr)
            continue;
        double t = ts->asDouble();
        if (t < lo || t > hi)
            continue;
        double ms = dur->asDouble() * 1e-3;
        const std::string &n = name->asString();
        int64_t thread = tid->asInt();
        if (n == "service.queue") {
            out.queue_ms.push_back(ms);
            last_queue[thread] = ms;
        } else if (n == "service.run") {
            out.run_ms.push_back(ms);
            auto q = last_queue.find(thread);
            out.server_ms.push_back(ms + (q == last_queue.end()
                                                  ? 0.0 : q->second));
            if (q != last_queue.end())
                last_queue.erase(q);
        } else if (n == "setup") {
            out.setup_ms.push_back(ms);
        }
    }
    return out;
}

/** Mean service-side run seconds per algorithm over a rung, from
 *  `SearchService::history()`. */
std::map<std::string, double>
runSecondsByAlgo(const service::SearchService &svc, const Rung &rung,
                 const SpecPool &pool, const std::string &tag)
{
    std::map<std::string, double> sum;
    std::map<std::string, int> count;
    for (const service::RequestRecord &rec : svc.history()) {
        if (rec.endpoint != "search" || rec.id.rfind(tag + ".", 0) != 0)
            continue;
        size_t k = size_t(std::strtoull(rec.id.c_str() + tag.size() + 1,
                nullptr, 10));
        if (k >= rung.plan.size())
            continue;
        const std::string &algo = pool.specs[rung.plan[k].spec].algorithm;
        sum[algo] += rec.seconds;
        ++count[algo];
    }
    for (auto &[algo, s] : sum)
        s /= count[algo];
    return sum;
}

/** p50 and tail of a latency list into `<prefix>.p50` / `.tail`. */
void
setP50Tail(Report &report, const std::string &prefix,
           const std::vector<double> &v)
{
    report.set(prefix + ".p50", median(v));
    report.set(prefix + ".tail", tailPercentile(v).value);
}

} // namespace

int
runService(const Args &args)
{
    Report report(args.trace);
    report.line(fingerprint(args.seed));

    // Set-up, repeated kSetupReps times (the last one serves the run):
    // build the spec pool and its references, start the service and
    // its transport, and ping both connections. The references uphold
    // the "service stream == direct run" contract: each distinct spec
    // runs once directly, and every done frame must reproduce its EDP.
    SpecPool pool;
    std::unique_ptr<Server> server;
    std::vector<double> setups;
    for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
        server.reset();
        Clock::time_point t0 = Clock::now();
        pool = makePool(args.seed);
        std::vector<SearchResult> direct;
        for (const SearchSpec &spec : pool.specs) {
            direct.push_back(runSearch(spec).search);
            pool.direct_best.push_back(direct.back().best_edp);
        }
        server = std::make_unique<Server>();
        pingAll(server->tcp.port());
        setups.push_back(secondsSince(t0));
        if (rep == 0)
            for (size_t i = 0; i < direct.size(); ++i)
                checkTrace(report, "service direct " + pool.names[i],
                        direct[i], size_t(kSamples));
    }
    Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);

    if (!args.trace) {
        report.set("setup_s", median(setups));
        report.set("samples_per_s", burstRate(report, *server, pool, rng,
                kBurstShare * args.seconds));
        std::vector<Rung> rungs;
        for (size_t i = 0; i < std::size(kLadder); ++i)
            rungs.push_back(runRung(report, *server, pool, rng, i,
                    rungSeconds(i, (1.0 - kBurstShare) * args.seconds)));
        const Phase &nominal = rungs[kNominal].phase;
        report.line("request latency at the nominal " +
                    fixed(kLadder[kNominal], 0) + " req/s: p50 " +
                    fixed(median(nominal.search_ms)) + " ms, " +
                    tailText(nominal.search_ms) + "; max_rate_rps " +
                    fixed(maxRate(rungs), 0));
        report.set("wall_s", median(nominal.search_ms) * 1e-3);
        report.set("peak_rss_mb", peakRssMb());
        return report.finish();
    }

    // Traced run: the nominal rung untraced (the overhead baseline),
    // then the whole ladder traced.
    Rung plain = runRung(report, *server, pool, rng, kNominal,
            rungSeconds(kNominal, args.seconds) / 2.0);
    obs::globalTracer().enable();
    globalEvalCache().resetStats();
    auto before = counterSnapshot();
    std::vector<Rung> rungs;
    for (size_t i = 0; i < std::size(kLadder); ++i)
        rungs.push_back(runRung(report, *server, pool, rng, i,
                rungSeconds(i, args.seconds)));
    auto after = counterSnapshot();
    const Rung &nominal = rungs[kNominal];
    const Phase &ph = nominal.phase;

    report.set("request_p50_ms", median(ph.search_ms));
    report.set("request_tail_ms", tailPercentile(ph.search_ms).value);
    report.set("max_rate_rps", maxRate(rungs));
    report.set("obs.trace_overhead_pct",
            (median(ph.search_ms) - median(plain.phase.search_ms)) /
            median(plain.phase.search_ms) * 100.0);

    ServerSpans spans = serverSpans(nominal.start_ns, nominal.end_ns);
    setP50Tail(report, "service.queue_wait_ms", spans.queue_ms);
    setP50Tail(report, "service.run_ms", spans.run_ms);
    report.set("service.client_gap_ms.p50",
            median(ph.search_ms) - median(spans.server_ms));
    Tail client_tail = tailPercentile(ph.search_ms);
    report.set("service.client_gap_ms.tail", client_tail.value -
            nearestRank(spans.server_ms, client_tail.percentile));
    report.set("service.first_frame_ms.p50", median(ph.first_frame_ms));
    std::vector<double> stats_ms, lag_ms;
    size_t sent = 0, succeeded = 0, failed = 0;
    for (const Rung &r : rungs) {
        stats_ms.insert(stats_ms.end(), r.phase.stats_ms.begin(),
                r.phase.stats_ms.end());
        lag_ms.insert(lag_ms.end(), r.phase.lag_ms.begin(),
                r.phase.lag_ms.end());
        sent += r.phase.sent;
        succeeded += r.phase.succeeded;
        failed += r.phase.failed;
    }
    setP50Tail(report, "service.stats_ms", stats_ms);
    report.set("service.frames_per_request",
            double(ph.frames) / double(ph.searches));
    report.set("service.admitted", double(counterDelta(before, after,
            "service.search.admitted")));
    report.set("service.rejected", double(counterDelta(before, after,
            "service.search.rejected")));
    report.set("bench.generator_lag_ms.tail",
            tailPercentile(lag_ms).value);
    report.set("bench.generator_lag_ms.max",
            *std::max_element(lag_ms.begin(), lag_ms.end()));
    report.set("bench.sent", double(sent));
    report.set("bench.succeeded", double(succeeded));
    report.set("bench.failed", double(failed));

    report.set("api.setup_s", median(spans.setup_ms) * 1e-3);
    reportCounters(report, before, after);
    auto run_s = runSecondsByAlgo(server->svc, nominal, pool, "r" +
            std::to_string(kNominal));
    report.set("search.mapper.run_s", run_s["mapper"]);
    report.set("search.random.wall_s", run_s["random"]);
    report.line("transport gap at the nominal rate: client p50 " +
                fixed(median(ph.search_ms)) + " ms, first frame p50 " +
                fixed(median(ph.first_frame_ms)) + " ms, server "
                "queue+run p50 " + fixed(median(spans.server_ms)) + " ms");
    runLayerProbes(report, pool.specs[1].workload, nullptr, args.seed);
    dumpTrace(report, args.trace_out);
    return report.finish();
}

} // namespace e2e
