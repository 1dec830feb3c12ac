#include "svc/daemon.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/engine.hh"
#include "svc/cachekey.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"

namespace upc780::svc
{

// ----- JobState --------------------------------------------------------

namespace detail
{

void
JobState::emit(const json::Value &event)
{
    // Copy the observer list under the lock, call outside it: an
    // observer may block (socket write) or attach further observers.
    std::vector<EventFn> observers;
    {
        std::lock_guard<std::mutex> lock(mu);
        observers = this->observers;
    }
    for (const EventFn &fn : observers)
        fn(event);
}

void
JobState::finish(std::string replyText)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        reply = std::move(replyText);
        done = true;
    }
    cv.notify_all();
}

std::string
JobState::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return reply;
}

} // namespace detail

// ----- error replies ---------------------------------------------------

std::string
errorTypeName(const SimError &e)
{
    // Most-derived first; the wire names mirror the C++ hierarchy.
    if (dynamic_cast<const ConfigError *>(&e))
        return "ConfigError";
    if (dynamic_cast<const GuestError *>(&e))
        return "GuestError";
    if (dynamic_cast<const WatchdogError *>(&e))
        return "WatchdogError";
    if (dynamic_cast<const AuditError *>(&e))
        return "AuditError";
    if (dynamic_cast<const SnapshotError *>(&e))
        return "SnapshotError";
    if (dynamic_cast<const LintError *>(&e))
        return "LintError";
    return "SimError";
}

std::string
errorReply(const std::string &type, const std::string &message)
{
    json::Value err = json::object();
    err.set("type", type);
    err.set("message", message);
    json::Value root = json::object();
    root.set("ok", false);
    root.set("error", std::move(err));
    return root.dump();
}

// ----- reply construction ----------------------------------------------

namespace
{

/** The image the spec's machine actually runs (see canonicalJobBytes). */
const ucode::MicrocodeImage &
effectiveImage(const cpu::MachineConfig &m)
{
    if (m.image)
        return *m.image;
    return m.fpa ? ucode::microcodeImage() : ucode::microcodeImageNoFpa();
}

json::Value
hwToJson(const sim::HwCounters &hw)
{
    json::Value v = json::object();
    v.set("d_reads", hw.dReads);
    v.set("d_read_misses", hw.dReadMisses);
    v.set("i_reads", hw.iReads);
    v.set("i_read_misses", hw.iReadMisses);
    v.set("writes", hw.writes);
    v.set("write_stall_cycles", hw.writeStallCycles);
    v.set("unaligned_refs", hw.unalignedRefs);
    v.set("tb_d_misses", hw.tbDMisses);
    v.set("tb_i_misses", hw.tbIMisses);
    v.set("ib_fills", hw.ibFills);
    return v;
}

/**
 * One workload result on the wire. Deliberately deterministic-only:
 * host wall-clock, attempt counts and resume provenance are excluded,
 * so a run that recovered from a crash or resumed after a drain
 * serializes to the clean run's exact bytes (the recovery tests
 * compare with memcmp).
 */
json::Value
workloadToJson(const sim::WorkloadResult &r)
{
    json::Value v = json::object();
    v.set("name", r.name);
    v.set("ok", r.ok);
    if (!r.ok)
        v.set("error", r.error);
    v.set("cycles", r.cycles);
    v.set("measured_cycles", r.histogram.totalCycles());
    v.set("timer_interrupts", r.timerInterrupts);
    v.set("terminal_interrupts", r.terminalInterrupts);
    v.set("hw", hwToJson(r.hw));
    return v;
}

json::Value
compositeToJson(const sim::CompositeResult &c)
{
    json::Value v = json::object();
    v.set("instructions", c.instructions());
    v.set("cycles", c.histogram.totalCycles());
    if (c.instructions())
        v.set("cpi", static_cast<double>(c.histogram.totalCycles()) /
                         static_cast<double>(c.instructions()));
    v.set("all_ok", c.allOk());
    json::Value wl = json::array();
    for (const auto &w : c.workloads)
        wl.push(workloadToJson(w));
    v.set("workloads", std::move(wl));
    return v;
}

std::string
successReply(const JobSpec &spec, const std::string &key,
             const std::vector<sim::CompositeResult> &reps)
{
    json::Value root = json::object();
    root.set("ok", true);
    root.set("key", key);

    // Echo the cache-canonical spec, not the submitted one: tenant and
    // fetch mode are per-client and outside the key, and the reply must
    // be one fixed byte string per key no matter who asks.
    JobSpec canonical = spec;
    canonical.tenant = "default";
    canonical.cacheOnly = false;
    root.set("spec", jobSpecToJson(canonical));

    json::Value rl = json::array();
    for (const auto &c : reps)
        rl.push(compositeToJson(c));
    root.set("replications", std::move(rl));

    if (reps.size() > 1) {
        RunningStat cpi = sim::cpiAcrossReplications(reps);
        json::Value sweep = json::object();
        sweep.set("cpi_mean", cpi.mean());
        sweep.set("cpi_stddev", cpi.stddev());
        sweep.set("cpi_min", cpi.min());
        sweep.set("cpi_max", cpi.max());
        root.set("seed_sweep", std::move(sweep));
    }

    if (spec.report && !reps.empty()) {
        // Exactly the CLI's report: replication 0's composite through
        // the same analyzer + hardware inputs (Tables 1-9 parity is a
        // tested property, not a coincidence).
        const sim::CompositeResult &c = reps.front();
        upc::HistogramAnalyzer an(c.histogram,
                                  effectiveImage(spec.machine));
        upc::ReportHwInputs hw;
        hw.ibFills = c.hw.ibFills;
        hw.iReadMisses = c.hw.iReadMisses;
        hw.dReadMisses = c.hw.dReadMisses;
        hw.unalignedRefs = c.hw.unalignedRefs;
        hw.softIntRequests = c.osStats.softIntRequests();
        root.set("report", upc::writeReport(an, hw));
    }
    return root.dump();
}

json::Value
makeEvent(const char *type, const std::string &key)
{
    json::Value ev = json::object();
    ev.set("event", type);
    ev.set("key", key);
    return ev;
}

} // namespace

// ----- Daemon ----------------------------------------------------------

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cacheDir, cfg_.cacheBudgetBytes)
{
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Daemon::~Daemon()
{
    drain();
}

uint64_t
Daemon::nowMs() const
{
    return cfg_.clock ? cfg_.clock->nowMs() : sysClock_.nowMs();
}

std::string
Daemon::keyFor(const std::string &requestText) const
{
    return cacheKey(parseJobSpec(json::parse(requestText), cfg_.limits));
}

JobHandle
Daemon::submit(const std::string &requestText, EventFn onEvent)
{
    auto st = std::make_shared<detail::JobState>();
    if (onEvent)
        st->observers.push_back(onEvent);
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.submitted;
    }

    if (drain_.load()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.rejected;
        }
        st->finish(errorReply("Unavailable",
                              "daemon is draining; resubmit later"));
        return JobHandle(st);
    }

    JobSpec spec;
    try {
        spec = parseJobSpec(json::parse(requestText), cfg_.limits);
        st->key = cacheKey(spec);
    } catch (const SimError &e) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.rejected;
        }
        st->emit(makeEvent("rejected", st->key));
        st->finish(errorReply(errorTypeName(e), e.what()));
        return JobHandle(st);
    }
    const std::string &key = st->key;

    // Admission decision under one lock so two identical concurrent
    // submissions cannot both miss the single-flight map.
    enum class Action
    {
        Joined,
        Hit,
        CacheOnlyMiss,
        QueueFull,
        Enqueued,
    } action;
    std::shared_ptr<detail::JobState> leader;
    std::string cached;
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto inFlight = inflight_.find(key);
        if (inFlight != inflight_.end()) {
            ++stats_.singleFlightJoins;
            leader = inFlight->second;
            action = Action::Joined;
        } else if (auto hit = cache_.get(key)) {
            ++stats_.cacheHits;
            ++stats_.completed;
            cached = std::move(*hit);
            action = Action::Hit;
        } else {
            ++stats_.cacheMisses;
            if (spec.cacheOnly) {
                ++stats_.rejected;
                action = Action::CacheOnlyMiss;
            } else if (queues_[spec.tenant].size() >=
                           cfg_.maxQueuedPerTenant ||
                       queuedTotal_ >= cfg_.maxQueuedTotal) {
                ++stats_.rejected;
                action = Action::QueueFull;
            } else {
                queues_[spec.tenant].push_back(
                    Queued{st, spec, nowMs()});
                ++queuedTotal_;
                inflight_[key] = st;
                ++stats_.admitted;
                action = Action::Enqueued;
            }
        }
    }

    switch (action) {
    case Action::Joined:
        // Share the in-flight job: one simulation, many waiters.
        if (onEvent) {
            bool attached = false;
            {
                std::lock_guard<std::mutex> lock(leader->mu);
                if (!leader->done) {
                    leader->observers.push_back(onEvent);
                    attached = true;
                }
            }
            json::Value ev = makeEvent("joined", key);
            ev.set("attached", attached);
            onEvent(ev);
        }
        return JobHandle(leader);
    case Action::Hit: {
        json::Value ev = makeEvent("cache", key);
        ev.set("hit", true);
        st->emit(ev);
        st->emit(makeEvent("done", key));
        st->finish(std::move(cached));
        return JobHandle(st);
    }
    case Action::CacheOnlyMiss:
        st->finish(errorReply(
            "CacheMiss", "cache_only request has no cached result"));
        return JobHandle(st);
    case Action::QueueFull:
        st->finish(errorReply(
            "QueueFull",
            "queue depth limit reached for tenant '" + spec.tenant +
                "'; resubmit later"));
        return JobHandle(st);
    case Action::Enqueued:
        break;
    }

    {
        json::Value ev = makeEvent("admitted", key);
        ev.set("tenant", spec.tenant);
        st->emit(ev);
    }
    queueCv_.notify_one();
    return JobHandle(st);
}

bool
Daemon::popLocked(Queued &out)
{
    if (queuedTotal_ == 0)
        return false;
    // Round-robin across tenants: resume strictly after the cursor,
    // wrapping, so no tenant's backlog can starve another's.
    auto it = queues_.upper_bound(rrCursor_);
    for (size_t scanned = 0; scanned <= queues_.size(); ++scanned) {
        if (it == queues_.end())
            it = queues_.begin();
        if (!it->second.empty()) {
            out = std::move(it->second.front());
            it->second.pop_front();
            --queuedTotal_;
            rrCursor_ = it->first;
            return true;
        }
        ++it;
    }
    return false;
}

bool
Daemon::runQueuedOnce()
{
    Queued q;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!popLocked(q))
            return false;
    }
    runJob(q);
    return true;
}

void
Daemon::workerLoop()
{
    for (;;) {
        Queued q;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queueCv_.wait(lock, [&] {
                return drain_.load() || queuedTotal_ > 0;
            });
            if (drain_.load())
                return; // drain() flushes whatever is still queued
            if (!popLocked(q))
                continue;
        }
        runJob(q);
    }
}

void
Daemon::finishJob(const std::shared_ptr<detail::JobState> &st,
                  std::string reply, bool ok)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inflight_.find(st->key);
        if (it != inflight_.end() && it->second == st)
            inflight_.erase(it);
    }
    json::Value ev = makeEvent("done", st->key);
    ev.set("ok", ok);
    st->emit(ev);
    st->finish(std::move(reply));
}

void
Daemon::runJob(const Queued &q)
{
    const std::string &key = q.state->key;

    if (cfg_.requestTimeoutMs &&
        nowMs() - q.enqueuedMs > cfg_.requestTimeoutMs) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.timeouts;
            ++stats_.failed;
        }
        finishJob(q.state,
                  errorReply("Timeout",
                             "request spent longer than " +
                                 std::to_string(cfg_.requestTimeoutMs) +
                                 " ms queued"),
                  false);
        return;
    }
    if (drain_.load()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.drained;
        }
        finishJob(q.state,
                  errorReply("Draining", "daemon drained before the "
                                         "job started"),
                  false);
        return;
    }

    q.state->emit(makeEvent("run", key));

    std::string reply;
    bool ok = false;
    bool drained = false;
    try {
        sim::ExperimentConfig xc = toExperimentConfig(q.spec);
        if (!cfg_.spoolDir.empty()) {
            // Spool = the PR-5 recoverable-run machinery, per job:
            // periodic checkpoints, watchdog-trip retries, completed
            // workloads persisted as `.result` files, and resume=true
            // so a drained/crashed composite picks up where it left
            // off. None of this is in the cache key: it shapes how the
            // answer is computed, never what it is.
            xc.checkpoint.dir = cfg_.spoolDir + "/" + key;
            xc.checkpoint.everyCycles = cfg_.spoolEveryCycles;
            xc.checkpoint.resume = true;
            xc.checkpoint.maxRetries = cfg_.maxRetries;
            xc.checkpoint.simulatedCrashCycles = cfg_.chaosCrashCycles;
            if (cfg_.chaosCrashCycles.size() >= xc.checkpoint.maxRetries)
                xc.checkpoint.maxRetries = static_cast<uint32_t>(
                    cfg_.chaosCrashCycles.size());
        }

        const auto profiles = profilesFor(q.spec);
        const uint64_t total =
            uint64_t{q.spec.replications} * profiles.size();
        auto progress = std::make_shared<std::atomic<uint64_t>>(0);

        sim::EngineConfig ec;
        ec.jobs = cfg_.engineJobs;
        ec.stop = &drain_;
        auto st = q.state;
        ec.onTaskDone = [st, key, total, progress](
                            size_t, const sim::WorkloadResult &r) {
            json::Value ev = makeEvent("progress", key);
            ev.set("workload", r.name);
            ev.set("ok", r.ok);
            ev.set("completed", progress->fetch_add(1) + 1);
            ev.set("total", total);
            st->emit(ev);
        };

        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.engineRuns;
        }
        sim::ParallelEngine engine(xc, ec);
        const auto reps =
            engine.runReplicated(profiles, q.spec.replications);

        const bool allOk = std::all_of(
            reps.begin(), reps.end(),
            [](const sim::CompositeResult &c) { return c.allOk(); });
        if (allOk) {
            reply = successReply(q.spec, key, reps);
            ok = true;
        } else if (drain_.load()) {
            // Cut short by drain: completed workloads persisted to the
            // spool (if configured); a restarted daemon resumes them.
            drained = true;
            reply = errorReply("Draining",
                               "drained mid-job; completed workloads "
                               "are spooled for resume");
        } else {
            std::string detail = "workload failed";
            for (const auto &c : reps)
                for (const auto &w : c.workloads)
                    if (!w.ok) {
                        detail = w.name + ": " + w.error;
                        goto found;
                    }
        found:
            reply = errorReply("WorkloadError", detail);
        }
    } catch (const SimError &e) {
        reply = errorReply(errorTypeName(e), e.what());
    }

    if (ok) {
        cache_.put(key, reply);
        // The reply is durable in the cache now, so the job's spool
        // (checkpoints and `.result` files) can never be resumed from
        // again. A drained or failed job keeps its spool for resume.
        if (!cfg_.spoolDir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(
                std::filesystem::path(cfg_.spoolDir) / key, ec);
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (ok)
            ++stats_.completed;
        else if (drained)
            ++stats_.drained;
        else
            ++stats_.failed;
    }
    finishJob(q.state, std::move(reply), ok);
}

void
Daemon::drain()
{
    drain_.store(true);

    // Flush everything still queued with a typed error; in-flight jobs
    // see the engine stop flag and wind down on their own.
    std::vector<std::shared_ptr<detail::JobState>> flushed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[tenant, dq] : queues_) {
            (void)tenant;
            for (Queued &que : dq) {
                flushed.push_back(std::move(que.state));
                ++stats_.drained;
            }
            dq.clear();
        }
        queuedTotal_ = 0;
    }
    queueCv_.notify_all();
    for (auto &st : flushed)
        finishJob(st,
                  errorReply("Draining", "daemon drained before the "
                                         "job started"),
                  false);

    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

DaemonStats
Daemon::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace upc780::svc
