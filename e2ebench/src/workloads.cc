#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include <sys/resource.h>

#include "checks.hh"
#include "common/error.hh"
#include "common/random.hh"
#include "sim/engine.hh"
#include "sim/run.hh"
#include "snap/snapshot.hh"
#include "svc/cachekey.hh"
#include "svc/daemon.hh"
#include "svc/job.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "ucode/controlstore.hh"
#include "ulint/ulint.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"
#include "workload/codegen.hh"

namespace e2e
{

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

using Scope = SpanRecorder::Scope;

// ---- statistics and host readings -------------------------------------

/** Quantile with linear interpolation between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/**
 * The timing statistic of every end-to-end metric. This host slows
 * down in bursts that last several repetitions; the lower quartile of
 * many repetitions tracks the unburst speed while still averaging over
 * a quarter of the samples, where a median moves with every burst.
 */
double lowerQuartile(const std::vector<double> &v) { return quantile(v, 0.25); }

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct ProcVm
{
    double vmKb = 0;
    double maps = 0;
};

ProcVm
readProcVm()
{
    ProcVm v;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmSize:", 0) == 0)
            v.vmKb = std::stod(line.substr(7));
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);)
        v.maps += 1;
    return v;
}

/** Folds check results into the outcome. */
struct Checker
{
    Outcome &out;

    void
    operator()(const std::string &reason)
    {
        if (reason.empty())
            return;
        out.correct = false;
        if (out.faults.size() < 20)
            out.faults.push_back(reason);
    }
};

/** Runs one operation, counting it; a SimError marks it failed. */
template <typename Fn>
void
attempt(Outcome &out, const char *what, Fn &&fn)
{
    ++out.attempted;
    try {
        fn();
    } catch (const SimError &e) {
        ++out.failed;
        std::fprintf(stderr, "e2ebench: %s failed: %s\n", what, e.what());
    }
}

Clock::time_point
deadline(double secondsFromNow)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(secondsFromNow));
}

/** Repeats @p op, which returns its own time, for @p secondsToRun
 *  (at least once) and returns the times of the operations that
 *  succeeded. */
template <typename Fn>
std::vector<double>
timedLoop(Outcome &out, const char *what, double secondsToRun, Fn &&op)
{
    std::vector<double> times;
    const Clock::time_point end = deadline(secondsToRun);
    do {
        attempt(out, what, [&] { times.push_back(op()); });
    } while (Clock::now() < end);
    return times;
}


// ---- composite --------------------------------------------------------

class Composite
{
  public:
    explicit Composite(uint64_t seed) : profiles_(wkl::paperWorkloads())
    {
        cfg_.instructionsPerWorkload = CompositeInstructions;
        cfg_.warmupInstructions = CompositeInstructions / 6;
        // Inputs derive from the run's seed exactly as a daemon job's
        // "seed" member derives them (svc::profilesFor).
        for (size_t i = 0; i < profiles_.size(); ++i)
            profiles_[i].seed = deriveSeed(seed, i);
    }

    struct Run
    {
        sim::CompositeResult result;
        std::string report;
        double seconds = 0; //!< the whole operation
        Clock::time_point firstCtor;
        double ctorS = 0;   //!< WorkloadRun constructors, summed
    };

    /** One composite: build, run, fold and render the five workloads. */
    Run
    run(SpanRecorder &rec)
    {
        Run out;
        rec.beginOp();
        const Clock::time_point t0 = Clock::now();
        Scope root(rec, "composite");
        for (size_t i = 0; i < profiles_.size(); ++i) {
            // One WorkloadRun alive at a time: each installs its
            // thread-local counter scope for its whole lifetime.
            std::unique_ptr<sim::WorkloadRun> wr;
            const Clock::time_point c0 = Clock::now();
            if (i == 0)
                out.firstCtor = c0;
            {
                Scope s(rec, "sim.WorkloadRun");
                wr = std::make_unique<sim::WorkloadRun>(cfg_, profiles_[i]);
            }
            out.ctorS += seconds(c0, Clock::now());
            sim::WorkloadResult r;
            {
                Scope s(rec, "sim.run");
                r = wr->run();
            }
            wr.reset();
            out.result.add(std::move(r));
        }
        std::unique_ptr<upc::HistogramAnalyzer> an;
        {
            Scope s(rec, "upc.HistogramAnalyzer");
            an = std::make_unique<upc::HistogramAnalyzer>(
                out.result.histogram, ucode::microcodeImage());
        }
        {
            Scope s(rec, "upc.writeReport");
            const sim::CompositeResult &c = out.result;
            upc::ReportHwInputs hw;
            hw.ibFills = c.hw.ibFills;
            hw.iReadMisses = c.hw.iReadMisses;
            hw.dReadMisses = c.hw.dReadMisses;
            hw.unalignedRefs = c.hw.unalignedRefs;
            hw.softIntRequests = c.osStats.softIntRequests();
            upc::ReportOptions opt;
            opt.title = "VAX-11/780 UPC Measurement Report (composite "
                        "of five workloads)";
            out.report = upc::writeReport(*an, hw, opt);
        }
        out.seconds = seconds(t0, Clock::now());
        return out;
    }

    /** Every check a composite must pass; the first checked run is the
     *  reference for byte identity of the later ones. */
    void
    check(const Run &r, Checker &chk)
    {
        const sim::CompositeResult &c = r.result;
        chk(checkInstructionBudget(c, CompositeInstructions));
        chk(checkCycleAgreement(c));
        chk(checkConservation(c));
        chk(checkReportHeadline(r.report, c));
        if (!first_) {
            first_ = std::make_unique<Run>(r);
            return;
        }
        chk(checkSame(first_->report, r.report, "composite report"));
        chk(checkSameCounters(first_->result.obs, c.obs));
    }

    /**
     * Per-layer values of the traced composite @p r, whose spans start
     * at index @p mark. The calls the constructor and run() make
     * internally (code generation, lint, audit) are traced again on
     * their own, from outside.
     */
    void
    layers(const Run &r, SpanRecorder &rec, size_t mark,
           std::map<std::string, double> &m, Checker &chk) const
    {
        for (const wkl::WorkloadProfile &p : profiles_) {
            Scope s(rec, "workload.buildWorkload");
            wkl::buildWorkload(p);
        }
        for (size_t i = 0; i < profiles_.size(); ++i) {
            Scope s(rec, "ulint.lint");
            if (!ulint::lint(ucode::microcodeImage()).clean())
                chk("ulint reports findings on the stock image");
        }
        for (const sim::WorkloadResult &w : r.result.workloads) {
            Scope s(rec, "sim.auditAttribution");
            sim::auditAttribution(ucode::microcodeImage(), w.histogram,
                                  w.obs, cfg_.obs.counters, w.name);
        }

        const std::vector<double> runSpans = rec.durations(mark, "sim.run");
        double warmup = 0, measure = 0;
        for (size_t i = 0; i < r.result.workloads.size(); ++i) {
            const obs::HostProfile &h = r.result.workloads[i].host;
            const double w = double(h.value(obs::Phase::Warmup)) * 1e-9;
            const double ms = double(h.value(obs::Phase::Measure)) * 1e-9;
            if (w + ms > runSpans.at(i))
                chk(r.result.workloads[i].name +
                    ": the program's warm-up plus measure time exceeds "
                    "the span around run()");
            warmup += w;
            measure += ms;
        }

        const double codegen = rec.total(mark, "workload.buildWorkload");
        const double lint = rec.total(mark, "ulint.lint");
        const obs::Snapshot &o = r.result.obs;
        m["workload.codegen_s"] = codegen;
        m["ulint.lint_s"] = lint;
        m["sim.build_s"] = rec.total(mark, "sim.WorkloadRun") - codegen - lint;
        m["sim.warmup_s"] = warmup;
        m["sim.measure_s"] = measure;
        m["sim.host_ns_per_cycle"] =
            measure * 1e9 / double(o.value(obs::Ev::UpcCycles));
        m["sim.host_ns_per_uop"] =
            measure * 1e9 / double(o.value(obs::Ev::EboxUops));
        m["ulint.audit_s"] = rec.total(mark, "sim.auditAttribution");
        m["sim.run_rest_s"] = rec.total(mark, "sim.run") - warmup - measure;
        m["upc.analyze_s"] = rec.total(mark, "upc.HistogramAnalyzer");
        m["upc.report_s"] = rec.total(mark, "upc.writeReport");

        const double instr = double(r.result.instructions());
        m["sim.instructions"] = instr;
        m["sim.cpi"] = double(r.result.histogram.totalCycles()) / instr;
        const std::pair<const char *, obs::Ev> counts[] = {
            {"upc.cycles", obs::Ev::UpcCycles},
            {"ebox.uops", obs::Ev::EboxUops},
            {"ebox.stall_cycles", obs::Ev::EboxStallCycles},
            {"ebox.ib_stall_cycles", obs::Ev::EboxIbStallCycles},
            {"ibox.fills", obs::Ev::IbFills},
            {"cache.d_reads", obs::Ev::CacheDReads},
            {"cache.d_read_misses", obs::Ev::CacheDReadMisses},
            {"cache.i_read_misses", obs::Ev::CacheIReadMisses},
            {"tb.d_misses", obs::Ev::TbDMisses},
            {"tb.i_misses", obs::Ev::TbIMisses},
            {"wb.stall_cycles", obs::Ev::WbStallCycles},
            {"os.context_switches", obs::Ev::OsContextSwitches},
            {"ebox.irq_dispatches", obs::Ev::IrqDispatches},
        };
        for (const auto &[name, ev] : counts)
            m[name] = double(o.value(ev));
    }

    double
    instructions() const
    {
        return double(CompositeInstructions) * double(profiles_.size());
    }

  private:
    sim::ExperimentConfig cfg_;
    std::vector<wkl::WorkloadProfile> profiles_;
    std::unique_ptr<Run> first_;
};

// ---- daemon fixtures --------------------------------------------------

/** A paper job on one seed; seeds stay below 2^31 so every JSON
 *  reader takes them as plain integers. */
std::string
jobRequest(uint64_t runSeed, uint64_t index, bool report)
{
    const uint64_t seed = (deriveSeed(runSeed, index) & 0x7fffffff) | 1;
    return "{\"workloads\":\"paper\",\"instructions\":" +
           std::to_string(JobInstructions) +
           ",\"warmup\":" + std::to_string(JobWarmup) +
           ",\"seed\":" + std::to_string(seed) +
           (report ? ",\"report\":true}" : "}");
}

/** Simulated instructions one paper job measures. */
double
jobInstructions()
{
    return double(JobInstructions) * double(wkl::paperWorkloads().size());
}

/** One Daemon (one worker, one engine thread) served on its own
 *  Unix socket under the scratch directory. */
class Service
{
  public:
    Service(const std::string &dir, const std::string &name, bool spool)
        : socket_(dir + "/" + name + ".sock"),
          daemon_(config(dir, name, spool))
    {
        restartServer();
    }

    std::string
    request(const std::string &line)
    {
        ++servedOnServer_;
        return svc::requestOverSocket(socket_, line);
    }

    /** Replace the Server; the Daemon and its cache stay. */
    void
    restartServer()
    {
        server_.reset();
        server_ = std::make_unique<svc::Server>(daemon_, socket_);
        server_->start();
        servedOnServer_ = 0;
    }

    uint64_t servedOnServer() const { return servedOnServer_; }
    svc::Daemon &daemon() { return daemon_; }
    const std::string &spoolDir() const { return daemon_.config().spoolDir; }

  private:
    static svc::DaemonConfig
    config(const std::string &dir, const std::string &name, bool spool)
    {
        svc::DaemonConfig c;
        c.cacheDir = dir + "/" + name + "-cache";
        if (spool)
            c.spoolDir = dir + "/" + name + "-spool";
        c.workers = 1;
        c.engineJobs = 1;
        return c;
    }

    std::string socket_;
    svc::Daemon daemon_;
    std::unique_ptr<svc::Server> server_; //!< stops before daemon_ drains
    uint64_t servedOnServer_ = 0;
};

/** Cold jobs to a spooled daemon, each checked against an unspooled
 *  daemon and a local ParallelEngine run of the same spec. */
class SpooledJobs
{
  public:
    SpooledJobs(const std::string &dir, uint64_t seed)
        : seed_(seed), spooled_(dir, "spooled", true),
          plain_(dir, "plain", false)
    {}

    struct Job
    {
        double seconds = 0; //!< round trip to the spooled daemon
        double checkpoints = 0;
        double checkpointBytes = 0;
        double spoolBytes = 0;
    };

    Job
    run(SpanRecorder &rec, Checker &chk)
    {
        Job j;
        const std::string req = jobRequest(seed_, next_++, false);
        const svc::JobSpec spec = svc::parseJobSpec(svc::json::parse(req));
        rec.beginOp();
        std::string reply;
        {
            Scope s(rec, "svc.job");
            const Clock::time_point t0 = Clock::now();
            reply = spooled_.request(req);
            j.seconds = seconds(t0, Clock::now());
        }

        const fs::path spool =
            fs::path(spooled_.spoolDir()) / svc::cacheKey(spec);
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(spool, ec)) {
            if (!e.is_regular_file())
                continue;
            const double bytes = double(e.file_size());
            j.spoolBytes += bytes;
            if (e.path().extension() == ".ckpt") {
                j.checkpoints += 1;
                j.checkpointBytes += bytes;
            }
        }
        if (rec.enabled())
            restoreNewest(rec, spec, spool.string());
        fs::remove_all(spool);

        std::string reference;
        {
            Scope s(rec, "svc.job_unspooled");
            reference = plain_.request(req);
        }
        sim::EngineConfig one;
        one.jobs = 1;
        const sim::CompositeResult local =
            sim::ParallelEngine(svc::toExperimentConfig(spec), one)
                .runComposite(svc::profilesFor(spec));

        chk(checkReplyOk(reply));
        chk(checkSame(reference, reply, "spooled reply vs unspooled reply"));
        chk(checkReplyTotals(reply, local));
        return j;
    }

  private:
    /** WorkloadRun::restore of the newest checkpoint of the job's last
     *  workload: the resume path. */
    static void
    restoreNewest(SpanRecorder &rec, const svc::JobSpec &spec,
                  const std::string &dir)
    {
        const wkl::WorkloadProfile p = svc::profilesFor(spec).back();
        const std::string path =
            snap::latestCheckpoint(dir, snap::taskId(p.name, p.seed));
        if (path.empty())
            return;
        const sim::ExperimentConfig cfg = svc::toExperimentConfig(spec);
        sim::WorkloadRun wr(cfg, p);
        Scope s(rec, "snap.restore");
        wr.restore(path);
    }

    uint64_t seed_;
    uint64_t next_ = 0;
    Service spooled_;
    Service plain_;
};

/** Identical requests for one primed result, all served from cache. */
class CacheHits
{
  public:
    CacheHits(const std::string &dir, uint64_t seed)
        : svc_(dir, "hits", false),
          // Stream 2^32 keeps this seed apart from the spooled jobs'.
          request_(jobRequest(seed, uint64_t{1} << 32, true))
    {}

    /** The cold job that fills the cache. */
    void
    prime(Checker &chk)
    {
        cold_ = svc_.request(request_);
        chk(checkReplyOk(cold_));
    }

    /** One hit over the socket; returns its round-trip time. */
    double
    hit(SpanRecorder &rec, Checker &chk)
    {
        if (svc_.servedOnServer() >= HitsPerServer)
            svc_.restartServer();
        rec.beginOp();
        Scope s(rec, "svc.hit");
        const Clock::time_point t0 = Clock::now();
        const std::string reply = svc_.request(request_);
        const double dt = seconds(t0, Clock::now());
        ++hitsSent_;
        chk(checkSame(cold_, reply, "cache-hit reply"));
        return dt;
    }

    /**
     * Traced-run extras: TracedHits hits on a fresh server, then as
     * many in-process submits, reply parses and cache keys, each on
     * its own. Returns the hits' round-trip times.
     */
    std::vector<double>
    layers(SpanRecorder &rec, std::map<std::string, double> &m,
           Outcome &out, Checker &chk)
    {
        svc_.restartServer();
        const size_t mark = rec.spans().size();
        const ProcVm before = readProcVm();
        std::vector<double> roundTrip;
        for (uint64_t i = 0; i < TracedHits; ++i)
            attempt(out, "traced hit",
                    [&] { roundTrip.push_back(hit(rec, chk)); });
        const ProcVm after = readProcVm();

        const svc::JobSpec spec =
            svc::parseJobSpec(svc::json::parse(request_));
        for (uint64_t i = 0; i < TracedHits; ++i) {
            attempt(out, "in-process hit", [&] {
                rec.beginOp();
                std::string reply;
                {
                    Scope s(rec, "svc.submit");
                    reply = svc_.daemon().submit(request_).wait();
                }
                ++hitsSent_;
                chk(checkSame(cold_, reply, "in-process hit reply"));
                {
                    Scope s(rec, "svc.reply_parse");
                    svc::json::parse(reply);
                }
                Scope s(rec, "svc.cache_key");
                svc::cacheKey(spec);
            });
        }
        const double submit = median(rec.durations(mark, "svc.submit"));
        const double n = double(TracedHits);
        m["svc.submit_s"] = submit;
        m["svc.socket_s"] = median(rec.durations(mark, "svc.hit")) - submit;
        m["svc.reply_parse_s"] =
            median(rec.durations(mark, "svc.reply_parse"));
        m["svc.cache_key_s"] = median(rec.durations(mark, "svc.cache_key"));
        m["svc.reply_bytes"] = double(cold_.size());
        m["svc.vm_kb_per_request"] = (after.vmKb - before.vmKb) / n;
        m["svc.maps_per_request"] = (after.maps - before.maps) / n;
        return roundTrip;
    }

    void
    finalCheck(Checker &chk)
    {
        chk(checkHitStats(svc_.daemon().stats(), hitsSent_));
    }

  private:
    Service svc_;
    std::string request_;
    std::string cold_;
    uint64_t hitsSent_ = 0;
};

// ---- metric tables ----------------------------------------------------

const std::vector<std::pair<const char *, const char *>> &
perLayerUnits()
{
    static const std::vector<std::pair<const char *, const char *>> t = {
        {"workload.codegen_s", "s"},
        {"ulint.lint_s", "s"},
        {"sim.build_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.measure_s", "s"},
        {"sim.host_ns_per_cycle", "ns"},
        {"sim.host_ns_per_uop", "ns"},
        {"ulint.audit_s", "s"},
        {"sim.run_rest_s", "s"},
        {"upc.analyze_s", "s"},
        {"upc.report_s", "s"},
        {"sim.instructions", "count"},
        {"sim.cpi", "cycles/instr"},
        {"upc.cycles", "count"},
        {"ebox.uops", "count"},
        {"ebox.stall_cycles", "count"},
        {"ebox.ib_stall_cycles", "count"},
        {"ibox.fills", "count"},
        {"cache.d_reads", "count"},
        {"cache.d_read_misses", "count"},
        {"cache.i_read_misses", "count"},
        {"tb.d_misses", "count"},
        {"tb.i_misses", "count"},
        {"wb.stall_cycles", "count"},
        {"os.context_switches", "count"},
        {"ebox.irq_dispatches", "count"},
        {"svc.job_s", "s"},
        {"svc.job_unspooled_s", "s"},
        {"snap.checkpoints", "count"},
        {"snap.bytes_per_checkpoint", "B"},
        {"snap.checkpoint_s", "s"},
        {"snap.spool_mb_left", "MB"},
        {"snap.restore_s", "s"},
        {"svc.submit_s", "s"},
        {"svc.socket_s", "s"},
        {"svc.reply_parse_s", "s"},
        {"svc.cache_key_s", "s"},
        {"svc.reply_bytes", "B"},
        {"svc.vm_kb_per_request", "KB"},
        {"svc.maps_per_request", "count"},
        {"trace.slowdown", "ratio"},
    };
    return t;
}

std::vector<Metric>
endToEnd(double instructions, const std::vector<double> &opSeconds,
         double setupS)
{
    const double op = lowerQuartile(opSeconds);
    return {
        {"sim_ips", instructions / op, "instr/s"},
        {"latency_ms", op * 1e3, "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

// ---- untraced runs ----------------------------------------------------

Outcome
runComposite(const Options &o, Clock::time_point start)
{
    Outcome out;
    Checker chk{out};
    SpanRecorder off(false);
    Composite comp(o.seed);

    // The warm-up composite is untimed; its constructors are the cold
    // set-up.
    double setupS = 0;
    attempt(out, "warm-up composite", [&] {
        const Composite::Run r = comp.run(off);
        setupS = seconds(start, r.firstCtor) + r.ctorS;
        comp.check(r, chk);
    });
    const std::vector<double> times =
        timedLoop(out, "composite", o.seconds, [&] {
            const Composite::Run r = comp.run(off);
            comp.check(r, chk);
            return r.seconds;
        });
    out.metrics = endToEnd(comp.instructions(), times, setupS);
    return out;
}

Outcome
runSpooledJobs(const Options &o, Clock::time_point start)
{
    Outcome out;
    Checker chk{out};
    SpanRecorder off(false);
    SpooledJobs jobs(o.workDir, o.seed);
    const double setupS = seconds(start, Clock::now());

    attempt(out, "warm-up job", [&] { jobs.run(off, chk); });
    const std::vector<double> times = timedLoop(
        out, "spooled job", o.seconds, [&] { return jobs.run(off, chk).seconds; });
    out.metrics = endToEnd(jobInstructions(), times, setupS);
    return out;
}

Outcome
runCacheHits(const Options &o, Clock::time_point start)
{
    Outcome out;
    Checker chk{out};
    SpanRecorder off(false);
    CacheHits hits(o.workDir, o.seed);
    attempt(out, "priming job", [&] { hits.prime(chk); });
    const double setupS = seconds(start, Clock::now());

    attempt(out, "warm-up hit", [&] { hits.hit(off, chk); });
    const std::vector<double> times = timedLoop(
        out, "cache hit", o.seconds, [&] { return hits.hit(off, chk); });
    hits.finalCheck(chk);
    out.metrics = endToEnd(jobInstructions(), times, setupS);
    return out;
}

// ---- traced run -------------------------------------------------------

/**
 * The per-layer run. Each round traces one operation of every kind
 * (so every layer is measured whichever workload is named) and runs
 * the named workload's operation once more untraced; the ratio of the
 * two gives the tracing overhead. Per-layer values are medians over
 * rounds.
 */
Outcome
runTraced(const Options &o)
{
    Outcome out;
    Checker chk{out};
    SpanRecorder rec(true);
    SpanRecorder off(false);
    Composite comp(o.seed);
    SpooledJobs jobs(o.workDir, o.seed);
    CacheHits hits(o.workDir, o.seed);
    attempt(out, "priming job", [&] { hits.prime(chk); });

    attempt(out, "warm-up composite",
            [&] { comp.check(comp.run(off), chk); });
    attempt(out, "warm-up job", [&] { jobs.run(off, chk); });
    attempt(out, "warm-up hit", [&] { hits.hit(off, chk); });

    std::map<std::string, std::vector<double>> rounds;
    std::vector<double> traced, plain;
    const Clock::time_point end = deadline(o.seconds);
    do {
        std::map<std::string, double> m;
        attempt(out, "traced composite", [&] {
            const size_t mark = rec.spans().size();
            const Composite::Run r = comp.run(rec);
            comp.check(r, chk);
            comp.layers(r, rec, mark, m, chk);
            if (o.workload == "composite")
                traced.push_back(r.seconds);
        });
        attempt(out, "traced job", [&] {
            const size_t mark = rec.spans().size();
            const SpooledJobs::Job j = jobs.run(rec, chk);
            const double job = rec.total(mark, "svc.job");
            const double unspooled = rec.total(mark, "svc.job_unspooled");
            m["svc.job_s"] = job;
            m["svc.job_unspooled_s"] = unspooled;
            m["snap.checkpoints"] = j.checkpoints;
            m["snap.bytes_per_checkpoint"] =
                j.checkpoints ? j.checkpointBytes / j.checkpoints : 0;
            m["snap.checkpoint_s"] =
                j.checkpoints ? (job - unspooled) / j.checkpoints : 0;
            m["snap.spool_mb_left"] = j.spoolBytes / (1024.0 * 1024.0);
            m["snap.restore_s"] = rec.total(mark, "snap.restore");
            if (o.workload == "spooled_jobs")
                traced.push_back(j.seconds);
        });
        const std::vector<double> hitTimes = hits.layers(rec, m, out, chk);
        if (o.workload == "cache_hits")
            traced.insert(traced.end(), hitTimes.begin(), hitTimes.end());

        // The named workload's operation again, untraced.
        if (o.workload == "composite") {
            attempt(out, "composite", [&] {
                const Composite::Run r = comp.run(off);
                comp.check(r, chk);
                plain.push_back(r.seconds);
            });
        } else if (o.workload == "spooled_jobs") {
            attempt(out, "spooled job",
                    [&] { plain.push_back(jobs.run(off, chk).seconds); });
        } else {
            for (uint64_t i = 0; i < TracedHits; ++i)
                attempt(out, "cache hit",
                        [&] { plain.push_back(hits.hit(off, chk)); });
        }
        for (const auto &[name, value] : m)
            rounds[name].push_back(value);
    } while (Clock::now() < end);
    hits.finalCheck(chk);

    rounds["trace.slowdown"] = {lowerQuartile(traced) / lowerQuartile(plain)};
    for (const auto &[name, unit] : perLayerUnits()) {
        const auto it = rounds.find(name);
        if (it == rounds.end() || it->second.empty())
            chk(std::string("no value for per-layer metric ") + name);
        else
            out.metrics.push_back({name, median(it->second), unit});
    }

    if (!o.traceFile.empty()) {
        fs::create_directories(fs::path(o.traceFile).parent_path());
        std::ofstream(o.traceFile) << rec.chromeJson();
    }
    return out;
}

} // namespace

Outcome
runBenchmark(const Options &o, Clock::time_point processStart)
{
    if (o.workload != "composite" && o.workload != "spooled_jobs" &&
        o.workload != "cache_hits")
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    fs::create_directories(o.workDir);
    if (o.trace)
        return runTraced(o);
    if (o.workload == "composite")
        return runComposite(o, processStart);
    if (o.workload == "spooled_jobs")
        return runSpooledJobs(o, processStart);
    return runCacheHits(o, processStart);
}

} // namespace e2e
