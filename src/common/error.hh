/**
 * @file
 * Structured error taxonomy for mcdsim.
 *
 * Every recoverable failure in the library throws one of three
 * McdError subclasses so callers (the execution layer's graceful
 * degradation above all) can attribute a failed run to a layer
 * without string-matching what():
 *
 *   ConfigError — the requested configuration cannot be built
 *                 (unknown benchmark, malformed fault spec, invalid
 *                 parameter). The run never starts.
 *   SimError    — the simulation itself stopped (violated budget,
 *                 exceeded deadline). Sites "event-budget" and
 *                 "deadline" are mapped to RunStatus::TimedOut by
 *                 the execution layer.
 *   ExecError   — the execution layer failed a run (injected task
 *                 fault).
 *
 * Each error carries a `site` (a short stable identifier such as
 * "task-throw" or "event-budget" — fault-injection sites reuse their
 * FaultSite spelling) and free-form `context`. what() renders
 * "<category> error at <site>: <context>".
 *
 * Unrecoverable conditions stay on panic()/fatal() from
 * common/logging.hh: a violated invariant is a simulator bug, not an
 * outcome to degrade gracefully around.
 */

#ifndef MCDSIM_COMMON_ERROR_HH
#define MCDSIM_COMMON_ERROR_HH

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

    /** "config", "sim", or "exec". */
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
