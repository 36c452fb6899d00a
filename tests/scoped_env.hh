/**
 * @file
 * Test helper: sets an environment variable for one scope.  Each
 * ctest case runs in its own process, so the change never leaks into
 * another test; restoring it keeps a whole-binary gtest run clean too.
 */

#ifndef TENOC_TESTS_SCOPED_ENV_HH
#define TENOC_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

namespace tenoc
{

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = ::getenv(name);
        had_ = old != nullptr;
        if (old)
            saved_ = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string saved_;
    bool had_ = false;
};

} // namespace tenoc

#endif // TENOC_TESTS_SCOPED_ENV_HH
