/**
 * @file
 * Generate a run's instruction stream on a helper thread (exec-internal).
 *
 * A workload generator's stream is a pure function of its profile,
 * seed and length; it reads no simulated state. PipelinedSource wraps
 * one and moves its next() calls onto a producer thread that fills a
 * bounded single-producer/single-consumer ring of TraceInst blocks,
 * while the simulating thread only copies instructions out. The
 * simulator sees the same instructions in the same order, so a run
 * over the wrapper is byte-identical to a run over the generator.
 *
 * The ring is kBlocks blocks of kBlockInsts instructions (24 KB). The
 * producer publishes whole blocks and sleeps when the ring is full
 * until half of it is free again; the consumer takes the lock once
 * per block, never per instruction.
 *
 * The producer starts on the first next(), not at construction, and
 * is stopped and joined by the destructor on every exit path: end of
 * stream, a run that stops before the stream ends, an exception
 * unwinding the simulator. An exception thrown by the generator
 * (a CheckFailure from a throwing check handler included) is carried
 * through the ring and rethrown by the next() call that asks for the
 * instruction the generator failed to produce, which is the call that
 * would have thrown inline. With the default abort handler a check
 * failure aborts the process from the producer, possibly ahead of the
 * position a run stopping early would have reached.
 *
 * Whether a run pipelines at all is a host decision taken by run()
 * (exec/run.hh) through ProducerCores below; it never changes results.
 */

#ifndef MCDSIM_EXEC_PIPELINED_SOURCE_HH
#define MCDSIM_EXEC_PIPELINED_SOURCE_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "workload/source.hh"

namespace mcd
{

/** A WorkloadSource whose inner source runs on a producer thread. */
class PipelinedSource : public WorkloadSource
{
  public:
    static constexpr std::size_t kBlocks = 4;
    static constexpr std::size_t kBlockInsts = 128;

    /** Wrap @p inner, which must outlive this source. No thread starts. */
    explicit PipelinedSource(WorkloadSource &inner);
    ~PipelinedSource() override;

    PipelinedSource(const PipelinedSource &) = delete;
    PipelinedSource &operator=(const PipelinedSource &) = delete;

    /** Forwarded to the inner source; only before the first next(). */
    void attachFaults(FaultInjector *injector) override;

    bool next(TraceInst &out) override;

    /** Stop the producer and restart the inner stream. */
    void reset() override;

    std::uint64_t totalInstructions() const override { return total; }
    std::string name() const override { return cachedName; }

  private:
    struct Block
    {
        std::array<TraceInst, kBlockInsts> insts;
        std::size_t count = 0;
        bool last = false;        ///< the stream ends after this block
        std::exception_ptr error; ///< thrown in place of insts[count]
    };

    void start();
    void stop();
    void produce();

    /** Consumer: release the current block and wait for the next. */
    bool advance(TraceInst &out);

    WorkloadSource &inner;
    const std::string cachedName;
    const std::uint64_t total;

    std::unique_ptr<std::array<Block, kBlocks>> ring;
    std::thread producer;

    // Guarded by mtx.
    std::mutex mtx;
    std::condition_variable spaceFreed; ///< producer waits here
    std::condition_variable published;  ///< consumer waits here
    std::uint64_t produced = 0;         ///< blocks published
    std::uint64_t consumed = 0;         ///< blocks released
    bool stopping = false;

    // Consumer-only.
    const Block *cur = nullptr;
    std::size_t pos = 0;
    bool inlineOnly = false; ///< no thread could start: generate here
};

/**
 * The core budget behind the pipelining policy. Every simulating
 * thread and every producer counts one thread against
 * std::thread::hardware_concurrency(): a ParallelRunner fan-out
 * reserves its full width before its workers start, which counts each
 * worker's simulating thread, and a pipelined run adds its producer,
 * plus its own thread when no fan-out counted it. So a lone run
 * counts two threads, and a pool at full width leaves none free.
 */
class ProducerCores
{
  public:
    /** Claim the threads one pipelined run on this thread needs. */
    ProducerCores();
    ~ProducerCores();

    ProducerCores(const ProducerCores &) = delete;
    ProducerCores &operator=(const ProducerCores &) = delete;

    /** True when the run may pipeline (the claim succeeded). */
    bool granted() const { return held > 0; }

  private:
    std::size_t held = 0;
};

/**
 * RAII reservation of @p width threads by a fan-out. Worker threads
 * mark themselves with WorkerThread so runs on them count only their
 * producer.
 */
class FanOutReservation
{
  public:
    explicit FanOutReservation(std::size_t width);
    ~FanOutReservation();

    FanOutReservation(const FanOutReservation &) = delete;
    FanOutReservation &operator=(const FanOutReservation &) = delete;

  private:
    std::size_t width;
};

/** RAII: mark the calling thread as counted by a fan-out. */
class WorkerThread
{
  public:
    WorkerThread();
    ~WorkerThread();

    WorkerThread(const WorkerThread &) = delete;
    WorkerThread &operator=(const WorkerThread &) = delete;

  private:
    bool prev;
};

/** Threads currently counted against the budget (for tests). */
std::size_t reservedThreads();

/** ProducerCores claims granted since process start (for tests). */
std::uint64_t pipelinedRuns();

} // namespace mcd

#endif // MCDSIM_EXEC_PIPELINED_SOURCE_HH
