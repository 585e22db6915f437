/**
 * @file
 * Error helpers in the gem5 idiom.
 *
 * panic()  - an internal invariant was violated (a ctamem bug); aborts.
 * fatal()  - the user asked for something impossible (bad config);
 *            throws FatalError so library embedders can recover.
 */

#ifndef CTAMEM_COMMON_LOG_HH
#define CTAMEM_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ctamem {

/** Error thrown by fatal(): an unusable user-supplied configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail {

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Abort on a violated internal invariant (a ctamem bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Throw FatalError: the simulation cannot continue (user error). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::format(args...));
}

} // namespace ctamem

#define ctamem_panic(...)                                               \
    ::ctamem::panicImpl(__FILE__, __LINE__,                             \
                        ::ctamem::detail::format(__VA_ARGS__))

#endif // CTAMEM_COMMON_LOG_HH
