/**
 * @file
 * Client side of the ctamemd pipe protocol: spawns the daemon with its
 * stdin/stdout on pipes and exchanges frames with it through
 * svc::writeFrame / svc::readFrame.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <sys/types.h>

#include <ext/stdio_filebuf.h>

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

class Daemon
{
  public:
    /** Start @p exe with @p args; throws std::runtime_error. */
    Daemon(const std::string &exe, const std::vector<std::string> &args);
    /** Kills and reaps the daemon if it is still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Write one frame; throws svc::WireError. */
    void send(const ctamem::json::Json &message);

    /**
     * Read one frame; throws std::runtime_error at the end of the
     * stream and svc::WireError on a malformed frame.
     */
    ctamem::json::Json receive();

    /**
     * Send "shutdown", read up to its "bye", close the pipes and reap
     * the process.  Returns true on a clean "bye" and exit status 0.
     */
    bool shutdown();

    /** Process id of the running daemon. */
    int pid() const { return pid_; }

  private:
    using FdBuf = __gnu_cxx::stdio_filebuf<char>;

    void reap(bool kill);

    pid_t pid_ = -1;
    std::unique_ptr<FdBuf> toChildBuf_;   //!< owns the write end
    std::unique_ptr<FdBuf> fromChildBuf_; //!< owns the read end
    std::ostream toChild_{nullptr};
    std::istream fromChild_{nullptr};
    int status_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
