/**
 * @file
 * Round-robin arbiters used by the separable (iSLIP-style) allocators.
 */

#ifndef TENOC_NOC_ARBITER_HH
#define TENOC_NOC_ARBITER_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace tenoc
{

/**
 * Classic rotating-priority arbiter.  grant() scans requestors starting
 * just after the last winner; in iSLIP fashion the pointer only
 * advances when a grant is accepted (callers that implement plain
 * round-robin can pass update=true unconditionally).
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(unsigned size = 0) : size_(size) {}

    void resize(unsigned size)
    {
        size_ = size;
        if (pointer_ >= size_)
            pointer_ = 0;
    }

    unsigned size() const { return size_; }

    /**
     * @param requests request flags, size() entries
     * @return winning index, or size() if no requests
     */
    unsigned
    grant(const std::vector<bool> &requests) const
    {
        tenoc_assert(requests.size() == size_, "arbiter size mismatch");
        for (unsigned i = 0; i < size_; ++i) {
            const unsigned idx = (pointer_ + i) % size_;
            if (requests[idx])
                return idx;
        }
        return size_;
    }

    /**
     * Bitmask grant: identical result to grant() with requests packed
     * into bit i of `requests`, in O(1) via count-trailing-zeros (the
     * winner is the lowest set bit at or after the pointer, else the
     * lowest set bit overall).  Usable whenever size() <= 64 — every
     * router-local arbiter (inputs * vcs requestors) qualifies.
     *
     * @return winning index, or size() if no requests
     */
    unsigned
    grantMask(std::uint64_t requests) const
    {
        tenoc_assert(size_ <= 64, "mask arbiter needs <= 64 requestors");
        if (requests == 0)
            return size_;
        const std::uint64_t at_or_after =
            requests & (~std::uint64_t{0} << pointer_);
        return static_cast<unsigned>(std::countr_zero(
            at_or_after ? at_or_after : requests));
    }

    /**
     * Multi-word bitmask grant: identical result to grant() with
     * requests packed into bit (i % 64) of words[i / 64].  The scan is
     * O(words) via count-trailing-zeros: lowest set bit at or after
     * the pointer, else lowest set bit overall.  This is the wide
     * companion of grantMask() for requestor counts above 64
     * (many VCs or multi-port MC routers); callers must zero any bits
     * at or above size().
     *
     * @param words  request bits, `nwords` words covering size() bits
     * @param nwords word count; nwords * 64 must cover size()
     * @return winning index, or size() if no requests
     */
    unsigned
    grantWords(const std::uint64_t *words, unsigned nwords) const
    {
        tenoc_assert(static_cast<std::uint64_t>(nwords) * 64 >= size_,
                     "grantWords needs ", (size_ + 63) / 64,
                     " words for ", size_, " requestors, got ", nwords);
        if (size_ == 0)
            return 0;
        const unsigned pw = pointer_ >> 6;
        const unsigned pb = pointer_ & 63;
        // At or after the pointer first (rotating priority)...
        std::uint64_t w = words[pw] & (~std::uint64_t{0} << pb);
        if (w != 0)
            return pw * 64 + static_cast<unsigned>(std::countr_zero(w));
        for (unsigned i = pw + 1; i < nwords; ++i) {
            if (words[i] != 0) {
                return i * 64 +
                       static_cast<unsigned>(std::countr_zero(words[i]));
            }
        }
        // ...then wrap around to the lowest set bit before it.
        for (unsigned i = 0; i < pw; ++i) {
            if (words[i] != 0) {
                return i * 64 +
                       static_cast<unsigned>(std::countr_zero(words[i]));
            }
        }
        w = pb == 0 ? 0
                    : words[pw] & ~(~std::uint64_t{0} << pb);
        if (w != 0)
            return pw * 64 + static_cast<unsigned>(std::countr_zero(w));
        return size_;
    }

    /** Advances priority past `winner` (call when grant is accepted). */
    void
    accept(unsigned winner)
    {
        tenoc_assert(winner < size_, "accept of invalid winner");
        pointer_ = (winner + 1) % size_;
    }

    /** Current priority pointer (checkpoint/restore). */
    unsigned pointer() const { return pointer_; }

    /** Overwrites the priority pointer (checkpoint/restore). */
    void
    setPointer(unsigned p)
    {
        tenoc_assert(size_ == 0 || p < size_, "arbiter pointer ", p,
                     " out of range ", size_);
        pointer_ = p;
    }

  private:
    unsigned size_;
    unsigned pointer_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_ARBITER_HH
