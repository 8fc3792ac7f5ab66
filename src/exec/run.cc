#include "exec/run.hh"

#include <optional>

#include "core/mcd_processor.hh"
#include "exec/pipelined_source.hh"
#include "workload/benchmarks.hh"

namespace mcd
{

SimResult
run(const std::string &benchmark, RunKind kind, ControllerKind controller,
    std::uint64_t seed, const RunOptions &options)
{
    const SimConfig cfg = resolveConfig(kind, controller, seed, options);
    auto generator =
        makeBenchmark(benchmark, options.instructions, cfg.seed);

    // Declared before the processor, so the producer is joined (and
    // its cores released) after the processor is gone, whichever way
    // the run ends.
    const ProducerCores cores;
    std::optional<PipelinedSource> pipelined;
    WorkloadSource *source = generator.get();
    if (cores.granted())
        source = &pipelined.emplace(*generator);

    McdProcessor proc(cfg, *source);
    SimResult r = proc.run(options.instructions);
    r.controller = runLabel(kind, controller);
    return r;
}

} // namespace mcd
