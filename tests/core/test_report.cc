/** @file Tests for result CSV/JSON serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hh"

namespace mcd
{
namespace
{

SimResult
sampleResult()
{
    SimResult r;
    r.benchmark = "epic_decode";
    r.controller = "adaptive";
    r.instructions = 1000;
    r.eventsProcessed = 5555;
    r.wallTicks = ticksFromUs(2);
    r.energy = 3e-3;
    r.branchDirectionAccuracy = 0.95;
    r.l1dMissRate = 0.04;
    r.domains[0].avgFrequency = 8e8;
    r.domains[0].avgQueueOccupancy = 7.5;
    r.domains[0].transitions = 42;
    r.domains[0].energy = 1e-3;
    return r;
}

TEST(Report, CsvHeaderAndRowHaveSameColumnCount)
{
    const std::string header = resultCsvHeader();
    const std::string row = resultCsvRow(sampleResult());
    const auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
}

TEST(Report, CsvRowContainsKeyFields)
{
    const std::string row = resultCsvRow(sampleResult());
    EXPECT_NE(row.find("epic_decode,adaptive,1000,5555"),
              std::string::npos);
    EXPECT_NE(row.find("0.003"), std::string::npos);
    EXPECT_NE(row.find("8e+08"), std::string::npos);
}

TEST(Report, EventsProcessedSurfacesInHeaderAndJson)
{
    EXPECT_NE(resultCsvHeader().find("events_processed"),
              std::string::npos);
    EXPECT_NE(resultJson(sampleResult())
                  .find("\"events_processed\": 5555"),
              std::string::npos);
}

TEST(Report, WriteResultsCsvEmitsHeaderOnceAndOneRowPerResult)
{
    std::ostringstream os;
    writeResultsCsv(os, {sampleResult(), sampleResult()});
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_EQ(out.find("benchmark,controller"), 0u);
}

TEST(Report, ComparisonCsv)
{
    ComparisonRow row;
    row.benchmark = "swim";
    row.scheme = "adaptive";
    row.vsBaseline.energySavings = 0.10;
    row.vsBaseline.perfDegradation = 0.02;
    row.result = sampleResult();
    const std::string s = comparisonCsvRow(row);
    EXPECT_NE(s.find("swim,adaptive,ok,1,0.1,0.02"), std::string::npos);

    std::ostringstream os;
    writeComparisonCsv(os, {row});
    EXPECT_EQ(os.str().find(comparisonCsvHeader()), 0u);
    EXPECT_NE(comparisonCsvHeader().find("status,attempts"),
              std::string::npos);
}

TEST(Report, ComparisonCsvFailedRowHasEmptyNumericCells)
{
    ComparisonRow row;
    row.benchmark = "swim";
    row.scheme = "adaptive";
    row.status = RunStatus::Failed;
    row.error = "exec error at task-throw: injected,\nwith separators";
    const std::string s = comparisonCsvRow(row);
    // Numeric cells stay empty; the error is CSV-sanitized onto one
    // line so the table still parses.
    EXPECT_NE(s.find("swim,adaptive,failed,1,,,,,,"), std::string::npos);
    EXPECT_EQ(s.find('\n'), std::string::npos);
    EXPECT_NE(s.find("injected  with separators"), std::string::npos);
}

TEST(Report, ComparisonCsvTimedOutSpelling)
{
    ComparisonRow row;
    row.result = sampleResult();
    row.status = RunStatus::TimedOut;
    EXPECT_NE(comparisonCsvRow(row).find(",timed_out,1,"),
              std::string::npos);
}

TEST(Report, JsonContainsNestedDomains)
{
    const std::string js = resultJson(sampleResult());
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.back(), '}');
    EXPECT_NE(js.find("\"benchmark\": \"epic_decode\""),
              std::string::npos);
    EXPECT_NE(js.find("\"domains\": ["), std::string::npos);
    EXPECT_NE(js.find("\"transitions\": 42"), std::string::npos);
    // Three domain objects.
    std::size_t count = 0, pos = 0;
    while ((pos = js.find("\"name\":", pos)) != std::string::npos) {
        ++count;
        pos += 7;
    }
    EXPECT_EQ(count, 3u);
}

} // namespace
} // namespace mcd
