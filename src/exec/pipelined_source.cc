#include "exec/pipelined_source.hh"

#include <algorithm>
#include <atomic>
#include <system_error>

#include "common/check.hh"

namespace mcd
{

PipelinedSource::PipelinedSource(WorkloadSource &source)
    : inner(source), cachedName(source.name()),
      total(source.totalInstructions())
{}

PipelinedSource::~PipelinedSource() { stop(); }

void
PipelinedSource::attachFaults(FaultInjector *injector)
{
    MCDSIM_CHECK(!producer.joinable(),
                 "faults attached after the producer started");
    inner.attachFaults(injector);
}

bool
PipelinedSource::next(TraceInst &out)
{
    if (cur && pos < cur->count) [[likely]] {
        out = cur->insts[pos++];
        return true;
    }
    return advance(out);
}

bool
PipelinedSource::advance(TraceInst &out)
{
    if (inlineOnly)
        return inner.next(out);
    for (;;) {
        if (cur) {
            if (pos < cur->count) {
                out = cur->insts[pos++];
                return true;
            }
            if (cur->error)
                std::rethrow_exception(cur->error);
            if (cur->last)
                return false;
        } else if (!producer.joinable()) {
            start();
            if (inlineOnly)
                return inner.next(out);
        }

        std::unique_lock<std::mutex> lock(mtx);
        if (cur) {
            // Release the drained block; wake a producer that found
            // the ring full once half of it is free again.
            ++consumed;
            if (produced - consumed == kBlocks / 2)
                spaceFreed.notify_one();
        }
        published.wait(lock, [this] { return produced > consumed; });
        cur = &(*ring)[consumed % kBlocks];
        pos = 0;
    }
}

void
PipelinedSource::start()
{
    if (!ring)
        ring = std::make_unique<std::array<Block, kBlocks>>();
    try {
        producer = std::thread(&PipelinedSource::produce, this);
    } catch (const std::system_error &) {
        // No thread to be had: generate on the simulating thread.
        inlineOnly = true;
    }
}

void
PipelinedSource::produce()
{
    for (;;) {
        std::uint64_t seq;
        {
            std::unique_lock<std::mutex> lock(mtx);
            if (produced - consumed == kBlocks) {
                spaceFreed.wait(lock, [this] {
                    return stopping || produced - consumed <= kBlocks / 2;
                });
            }
            if (stopping)
                return;
            seq = produced;
        }

        // The block at seq is free: the consumer reads only blocks in
        // [consumed, produced).
        Block &b = (*ring)[seq % kBlocks];
        b.count = 0;
        b.last = false;
        b.error = nullptr;
        try {
            while (b.count < kBlockInsts) {
                if (!inner.next(b.insts[b.count])) {
                    b.last = true;
                    break;
                }
                ++b.count;
            }
        } catch (...) {
            b.error = std::current_exception();
            b.last = true;
        }

        {
            std::lock_guard<std::mutex> lock(mtx);
            ++produced;
        }
        published.notify_one();
        if (b.last)
            return;
    }
}

void
PipelinedSource::stop()
{
    if (!producer.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    spaceFreed.notify_one();
    producer.join();
}

void
PipelinedSource::reset()
{
    stop();
    inner.reset();
    produced = 0;
    consumed = 0;
    stopping = false;
    cur = nullptr;
    pos = 0;
    inlineOnly = false;
}

// ------------------------------------------------------------ core budget

namespace
{

/** Threads counted against hardwareThreads() by live claims. */
std::atomic<std::size_t> committed{0};

std::atomic<std::uint64_t> pipelinedCount{0};

/** True on a fan-out worker: its simulating thread is counted. */
thread_local bool countedByFanOut = false;

std::size_t
hardwareThreads()
{
    static const std::size_t hw =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    return hw;
}

} // namespace

ProducerCores::ProducerCores()
{
    const std::size_t want = countedByFanOut ? 1 : 2;
    std::size_t seen = committed.load();
    do {
        if (seen + want > hardwareThreads())
            return;
    } while (!committed.compare_exchange_weak(seen, seen + want));
    held = want;
    pipelinedCount.fetch_add(1);
}

ProducerCores::~ProducerCores()
{
    if (held)
        committed.fetch_sub(held);
}

FanOutReservation::FanOutReservation(std::size_t threads) : width(threads)
{
    committed.fetch_add(width);
}

FanOutReservation::~FanOutReservation() { committed.fetch_sub(width); }

WorkerThread::WorkerThread() : prev(countedByFanOut)
{
    countedByFanOut = true;
}

WorkerThread::~WorkerThread() { countedByFanOut = prev; }

std::size_t
reservedThreads()
{
    return committed.load();
}

std::uint64_t
pipelinedRuns()
{
    return pipelinedCount.load();
}

} // namespace mcd
