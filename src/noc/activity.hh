/**
 * @file
 * Activity tracking for idle-skip scheduling.
 *
 * An ActiveSet is a bitmask over component indices (routers or NIs of
 * one network).  Components mark themselves active when work arrives
 * (a flit buffered, a credit in flight, a packet enqueued); the
 * network ticks only marked components each interconnect cycle and
 * retires the ones that ran out of work.  Iteration visits indices in
 * ascending order, so the tick order is identical to the full
 * tick-everything sweep and the simulation stays bit-exact (see
 * docs/performance.md).
 */

#ifndef TENOC_NOC_ACTIVITY_HH
#define TENOC_NOC_ACTIVITY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace tenoc
{

/** Dense bitmask of active component indices. */
class ActiveSet
{
  public:
    explicit ActiveSet(unsigned n = 0) { resize(n); }

    /** Clears the set and sizes it for indices [0, n). */
    void
    resize(unsigned n)
    {
        words_.assign((n + 63) / 64, 0);
        size_ = n;
    }

    void mark(unsigned i) { words_[i >> 6] |= WORD_ONE << (i & 63); }

    /** Marks every index in [0, size): the full-tick scheduler is
     *  idle-skip with everything marked. */
    void
    markAll()
    {
        if (words_.empty())
            return;
        std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
        if (const unsigned tail = size_ & 63)
            words_.back() = (WORD_ONE << tail) - 1;
    }

    void clear(unsigned i) { words_[i >> 6] &= ~(WORD_ONE << (i & 63)); }

    bool
    test(unsigned i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    bool
    empty() const
    {
        for (auto w : words_)
            if (w)
                return false;
        return true;
    }

    /** Raw mask words (checkpoint/restore). */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Overwrites the mask words (checkpoint/restore); the word count
     *  must match this set's size. */
    void
    setWords(const std::vector<std::uint64_t> &words)
    {
        tenoc_assert(words.size() == words_.size(),
                     "active-set word count mismatch");
        words_ = words;
    }

    /**
     * Calls f(index) for each marked index in ascending order.  Bits
     * set during iteration inside the word currently being scanned are
     * not visited this pass; callers rely only on marks set in earlier
     * phases of the cycle being visited (see MeshNetwork::cycle).
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                f(static_cast<unsigned>(w * 64 + b));
            }
        }
    }

    /** Clears every marked index for which `pred(index)` is true. */
    template <typename Pred>
    void
    retireIf(Pred &&pred)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                const auto idx = static_cast<unsigned>(w * 64 + b);
                if (pred(idx))
                    clear(idx);
            }
        }
    }

  private:
    static constexpr std::uint64_t WORD_ONE = 1;
    std::vector<std::uint64_t> words_;
    unsigned size_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_ACTIVITY_HH
