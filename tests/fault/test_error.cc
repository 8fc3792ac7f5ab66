/** @file Tests for the structured error taxonomy (common/error.hh). */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/error.hh"

namespace mcd
{
namespace
{

TEST(ErrorTaxonomy, WhatRendersCategorySiteContext)
{
    const ConfigError e("benchmark", "unknown benchmark 'quake3'");
    EXPECT_STREQ(e.what(),
                 "config error at benchmark: unknown benchmark 'quake3'");
    EXPECT_EQ(e.category(), "config");
    EXPECT_EQ(e.site(), "benchmark");
    EXPECT_EQ(e.context(), "unknown benchmark 'quake3'");
}

TEST(ErrorTaxonomy, EveryCategoryIsAnMcdErrorAndRuntimeError)
{
    // Callers catch McdError to attribute a failure to a layer, or
    // std::exception for the generic path; both must work for all
    // three categories.
    const auto check = [](const McdError &e, const char *category) {
        EXPECT_EQ(e.category(), category);
        EXPECT_NE(dynamic_cast<const std::runtime_error *>(&e), nullptr);
    };
    check(ConfigError("s", "c"), "config");
    check(SimError("s", "c"), "sim");
    check(ExecError("s", "c"), "exec");
}

TEST(ErrorTaxonomy, CatchingBaseClassPreservesDerivedData)
{
    try {
        throw SimError("event-budget", "run exceeded its event budget");
    } catch (const McdError &e) {
        EXPECT_EQ(e.category(), "sim");
        EXPECT_EQ(e.site(), "event-budget");
    }
}

TEST(ErrorTaxonomy, SubcategoriesAreDistinctTypes)
{
    // A ConfigError handler must not swallow a SimError.
    bool caught_config = false;
    try {
        throw SimError("deadline", "cancelled");
    } catch (const ConfigError &) {
        caught_config = true;
    } catch (const SimError &) {
    }
    EXPECT_FALSE(caught_config);
}

} // namespace
} // namespace mcd
