/**
 * @file
 * Structured error taxonomy for mcdsim.
 *
 * Every recoverable failure in the library throws one of four
 * McdError subclasses so callers (the execution layer's graceful
 * degradation above all) can attribute a failed run to a layer
 * without string-matching what():
 *
 *   ConfigError — the requested configuration cannot be built
 *                 (unknown benchmark, malformed fault spec, invalid
 *                 parameter). The run never starts.
 *   TraceError  — trace ingestion failed (unreadable file, bad
 *                 header, corrupt record). Carries the record index.
 *   SimError    — the simulation itself stopped (violated budget,
 *                 exceeded deadline). Sites "event-budget" and
 *                 "deadline" are mapped to RunStatus::TimedOut by
 *                 the execution layer.
 *   ExecError   — the execution layer failed a run (injected task
 *                 fault, leaked worker exceptions).
 *
 * Each error carries a `site` (a short stable identifier such as
 * "task-throw" or "trace-record" — fault-injection sites reuse their
 * FaultSite spelling) and free-form `context`. what() renders
 * "<category> error at <site>: <context>".
 *
 * Unrecoverable conditions stay on panic()/fatal() from
 * common/logging.hh: a violated invariant is a simulator bug, not an
 * outcome to degrade gracefully around.
 */

#ifndef MCDSIM_COMMON_ERROR_HH
#define MCDSIM_COMMON_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcd
{

/** Base class of all structured mcdsim errors. */
class McdError : public std::runtime_error
{
  public:
    McdError(std::string category, std::string site, std::string context)
        : std::runtime_error(category + " error at " + site + ": " +
                             context),
          _category(std::move(category)), _site(std::move(site)),
          _context(std::move(context))
    {}

    /** "config", "trace", "sim", or "exec". */
    const std::string &category() const { return _category; }

    /** Stable identifier of the failing site. */
    const std::string &site() const { return _site; }

    /** Human-readable detail. */
    const std::string &context() const { return _context; }

  private:
    std::string _category;
    std::string _site;
    std::string _context;
};

/** The requested configuration cannot be built. */
class ConfigError : public McdError
{
  public:
    ConfigError(std::string site, std::string context)
        : McdError("config", std::move(site), std::move(context))
    {}
};

/** Trace ingestion failed. recordIndex() is the 0-based record (the
 *  binary format's "line number"); header/open failures use noRecord. */
class TraceError : public McdError
{
  public:
    static constexpr std::uint64_t noRecord = ~std::uint64_t(0);

    TraceError(std::string site, std::string context,
               std::uint64_t record_index = noRecord)
        : McdError("trace", std::move(site), std::move(context)),
          _record(record_index)
    {}

    std::uint64_t recordIndex() const { return _record; }

  private:
    std::uint64_t _record;
};

/** The simulation stopped before completing its run. */
class SimError : public McdError
{
  public:
    SimError(std::string site, std::string context)
        : McdError("sim", std::move(site), std::move(context))
    {}
};

/** The execution layer failed a run. */
class ExecError : public McdError
{
  public:
    ExecError(std::string site, std::string context)
        : McdError("exec", std::move(site), std::move(context))
    {}
};

/**
 * Throw ConfigError at @p site with a printf-formatted context: the
 * parameter check of a model constructor. Out of line, like fatal(),
 * so the constructor's error path stays one plain call and does not
 * change how its fast path is compiled.
 */
[[noreturn]] void configError(const char *site, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace mcd

#endif // MCDSIM_COMMON_ERROR_HH
