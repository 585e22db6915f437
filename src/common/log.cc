#include "common/log.hh"

#include <cstdlib>
#include <iostream>

namespace ctamem {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " (" << file << ':' << line << ")\n";
    std::abort();
}

} // namespace ctamem
