#include "common/error.hh"

#include <cstdarg>
#include <cstdio>

namespace mcd
{

void
configError(const char *site, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    throw ConfigError(site, buf);
}

} // namespace mcd
