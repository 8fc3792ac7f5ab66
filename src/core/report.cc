#include "core/report.hh"

#include <sstream>

namespace mcd
{

namespace
{

const char *domainLabels[3] = {"int", "fp", "ls"};

/** Error context made CSV-safe: separators collapse to spaces. */
std::string
csvSanitize(std::string text)
{
    for (char &c : text) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ' ';
    }
    return text;
}

} // namespace

std::string
resultCsvHeader()
{
    std::ostringstream os;
    os << "benchmark,controller,instructions,events_processed,"
          "seconds,energy_j,edp,"
          "ips,branch_accuracy,l1d_miss_rate,l2_miss_rate,"
          "sync_crossings,sync_penalties";
    for (const char *d : domainLabels) {
        os << ',' << d << "_avg_freq_hz," << d << "_avg_queue," << d
           << "_transitions," << d << "_actions_up," << d
           << "_actions_down," << d << "_energy_j";
    }
    return os.str();
}

std::string
resultCsvRow(const SimResult &r)
{
    std::ostringstream os;
    os << r.benchmark << ',' << r.controller << ',' << r.instructions
       << ',' << r.eventsProcessed << ',' << r.seconds() << ','
       << r.energy << ',' << r.edp() << ','
       << r.instructionsPerSecond() << ',' << r.branchDirectionAccuracy
       << ',' << r.l1dMissRate << ',' << r.l2MissRate << ','
       << r.syncCrossings << ',' << r.syncPenalties;
    for (const auto &d : r.domains) {
        os << ',' << d.avgFrequency << ',' << d.avgQueueOccupancy << ','
           << d.transitions << ',' << d.controllerStats.actionsUp << ','
           << d.controllerStats.actionsDown << ',' << d.energy;
    }
    return os.str();
}

void
writeResultsCsv(std::ostream &os, const std::vector<SimResult> &results)
{
    os << resultCsvHeader() << '\n';
    for (const auto &r : results)
        os << resultCsvRow(r) << '\n';
}

std::string
comparisonCsvHeader()
{
    return "benchmark,scheme,status,attempts,energy_savings,"
           "perf_degradation,edp_improvement,energy_j,seconds,error";
}

std::string
comparisonCsvRow(const ComparisonRow &row)
{
    std::ostringstream os;
    // Every run is one attempt. The attempts column stays, written as
    // 1, until the next kRunSpecSchemaVersion bump drops it.
    os << row.benchmark << ',' << row.scheme << ','
       << runStatusName(row.status) << ",1,";
    if (runSucceeded(row.status)) {
        os << row.vsBaseline.energySavings << ','
           << row.vsBaseline.perfDegradation << ','
           << row.vsBaseline.edpImprovement << ',' << row.result.energy
           << ',' << row.result.seconds();
    } else {
        // Partial table: numeric cells stay empty rather than carrying
        // garbage from a run that never finished.
        os << ",,,,";
    }
    os << ',' << csvSanitize(row.error);
    return os.str();
}

void
writeComparisonCsv(std::ostream &os,
                   const std::vector<ComparisonRow> &rows)
{
    os << comparisonCsvHeader() << '\n';
    for (const auto &row : rows)
        os << comparisonCsvRow(row) << '\n';
}

std::string
resultJson(const SimResult &r, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string pad2(static_cast<std::size_t>(indent) * 2, ' ');
    std::ostringstream os;
    os << "{\n";
    os << pad << "\"benchmark\": \"" << r.benchmark << "\",\n";
    os << pad << "\"controller\": \"" << r.controller << "\",\n";
    os << pad << "\"instructions\": " << r.instructions << ",\n";
    os << pad << "\"events_processed\": " << r.eventsProcessed << ",\n";
    os << pad << "\"seconds\": " << r.seconds() << ",\n";
    os << pad << "\"energy_j\": " << r.energy << ",\n";
    os << pad << "\"edp\": " << r.edp() << ",\n";
    os << pad << "\"branch_accuracy\": " << r.branchDirectionAccuracy
       << ",\n";
    os << pad << "\"l1d_miss_rate\": " << r.l1dMissRate << ",\n";
    os << pad << "\"sync_penalties\": " << r.syncPenalties << ",\n";
    os << pad << "\"domains\": [\n";
    for (std::size_t i = 0; i < r.domains.size(); ++i) {
        const auto &d = r.domains[i];
        os << pad2 << "{\"name\": \"" << domainLabels[i]
           << "\", \"avg_freq_hz\": " << d.avgFrequency
           << ", \"avg_queue\": " << d.avgQueueOccupancy
           << ", \"transitions\": " << d.transitions
           << ", \"energy_j\": " << d.energy << "}"
           << (i + 1 < r.domains.size() ? "," : "") << "\n";
    }
    os << pad << "]\n";
    os << "}";
    return os.str();
}

} // namespace mcd
