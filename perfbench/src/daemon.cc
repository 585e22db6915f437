#include "daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "svc/wire.hh"

namespace perfbench {

namespace {

constexpr std::size_t kPipeBuffer = 1 << 16;

} // namespace

Daemon::Daemon(const std::string &exe,
               const std::vector<std::string> &args)
{
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    if (pipe2(out, O_CLOEXEC) != 0) {
        close(in[0]);
        close(in[1]);
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    }

    std::vector<std::string> argvStrings;
    argvStrings.push_back(exe);
    argvStrings.insert(argvStrings.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : argvStrings)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error("fork: " + std::string(strerror(errno)));
    if (pid_ == 0) {
        dup2(in[0], STDIN_FILENO);
        dup2(out[1], STDOUT_FILENO);
        execv(exe.c_str(), argv.data());
        _exit(127);
    }
    close(in[0]);
    close(out[1]);
    toChildBuf_ = std::make_unique<FdBuf>(in[1], std::ios::out, kPipeBuffer);
    fromChildBuf_ =
        std::make_unique<FdBuf>(out[0], std::ios::in, kPipeBuffer);
    toChild_.rdbuf(toChildBuf_.get());
    fromChild_.rdbuf(fromChildBuf_.get());
}

Daemon::~Daemon()
{
    reap(true);
}

void
Daemon::send(const ctamem::json::Json &message)
{
    ctamem::svc::writeFrame(toChild_, message);
}

ctamem::json::Json
Daemon::receive()
{
    std::optional<ctamem::json::Json> frame =
        ctamem::svc::readFrame(fromChild_);
    if (!frame)
        throw std::runtime_error("ctamemd: stream ended");
    return std::move(*frame);
}

bool
Daemon::shutdown()
{
    bool bye = false;
    try {
        ctamem::json::Json request = ctamem::json::Json::object();
        request.set("type", "shutdown");
        send(request);
        for (;;) {
            const ctamem::json::Json frame = receive();
            const ctamem::json::Json *type = frame.find("type");
            if (type && type->isString() && type->asString() == "bye") {
                bye = true;
                break;
            }
        }
    } catch (const std::exception &) {
        bye = false;
    }
    reap(!bye);
    return bye && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

void
Daemon::reap(bool kill)
{
    // Closing the write end is the daemon's end of input.
    toChild_.rdbuf(nullptr);
    toChildBuf_.reset();
    if (pid_ > 0) {
        if (kill)
            ::kill(pid_, SIGKILL);
        while (waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }
    fromChild_.rdbuf(nullptr);
    fromChildBuf_.reset();
}

} // namespace perfbench
