/**
 * @file
 * Runtime invariant checking for the mesh NoC.
 *
 * The InvariantChecker walks one MeshNetwork's routers, channels and
 * network interfaces and verifies the structural invariants that
 * credit-based wormhole routing guarantees when the implementation is
 * correct:
 *
 *  - credit conservation: for every (link, VC), upstream credits +
 *    flits in flight + credits in flight + downstream occupancy equals
 *    the VC depth — a leaked or duplicated credit shows up here;
 *  - flit conservation: flits that entered a router minus flits that
 *    left an ejection buffer equals the flits currently buffered in
 *    routers, channels and ejection buffers;
 *  - packet conservation: the O(1) in-flight counter behind
 *    Network::drained() equals the packets actually held by NIs plus
 *    tail flits in transit;
 *  - VC state-machine legality and output-VC ownership consistency;
 *  - stage-ready words: every bit of each router's RC/VA/SA and
 *    free-VC words equals its recomputation from the VC state;
 *  - buffer occupancy bounds and half-router connectivity compliance;
 *  - idle-skip activity: any component that could make progress is
 *    marked in its active set (a violation here means idle-skip would
 *    silently strand traffic).
 *
 * The checker is wired by MeshNetwork when MeshNetworkParams::validate
 * is set (tests enable it; TENOC_VALIDATE=1 forces it everywhere) and
 * runs every `validateInterval` cycles.  It only reads simulator
 * state, so enabling it never changes simulated behaviour — the
 * regression suite asserts zero stat deltas with it on.
 *
 * This header also defines the deadlock-watchdog report types used by
 * MeshNetwork (see MeshNetworkParams::watchdogWindow).
 */

#ifndef TENOC_NOC_INVARIANTS_HH
#define TENOC_NOC_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/channel.hh"
#include "noc/flit.hh"

namespace tenoc
{

class ActiveSet;
class NetworkInterface;
class Router;

/** One detected invariant violation. */
struct Violation
{
    enum class Kind : std::uint8_t
    {
        CREDIT_CONSERVATION, ///< credits + in-flight + occupancy != depth
        FLIT_CONSERVATION,   ///< injected - drained != buffered
        PACKET_CONSERVATION, ///< in-flight counter != held packets
        VC_STATE,            ///< illegal input-VC pipeline state
        VC_OWNERSHIP,        ///< output-VC owner bookkeeping mismatch
        OCCUPANCY,           ///< buffer over capacity / counter drift
        CONNECTIVITY,        ///< half-router mask / port-range breach
        ACTIVITY,            ///< workable component not in active set
        STAGE_WORDS          ///< stage-ready / free-VC word drift
    };

    Kind kind;
    std::string message; ///< precise location and observed values
};

/** @return short name of a violation kind ("credit_conservation", ...). */
const char *violationKindName(Violation::Kind kind);

/** @return true when TENOC_VALIDATE=1 is set in the environment
 *  (forces MeshNetworkParams::validate on); other values than 0 or 1
 *  warn and are ignored. */
bool validateForcedByEnv();

/**
 * Read-only auditor over one MeshNetwork's components.  The owning
 * network registers everything at construction time and calls
 * check(now) on a cycle stride.
 */
class InvariantChecker
{
  public:
    /** @param vc_depth flit slots per VC (credit conservation bound) */
    explicit InvariantChecker(unsigned vc_depth) : vc_depth_(vc_depth) {}

    void addRouter(const Router *router);
    void addNi(const NetworkInterface *ni);
    /**
     * Registers one inter-router link: `up`'s output `out_dir`, its
     * flit and returning credit channel, and the downstream router's
     * receiving input port `down_in`.
     */
    void addLink(const Router *up, unsigned out_dir,
                 const Channel<Flit> *flit_chan,
                 const Channel<Credit> *credit_chan, const Router *down,
                 unsigned down_in);
    /** Points the checker at the network-level conservation counters:
     *  packets in flight, flits injected into routers, flits drained
     *  from ejection buffers. */
    void setCounters(const std::uint64_t *inflight,
                     const std::uint64_t *flits_in,
                     const std::uint64_t *flits_out);
    /** Enables activity checking against the idle-skip sets. */
    void setActivity(const ActiveSet *router_set, const ActiveSet *ni_set);

    /**
     * Runs every check and returns the violations found (empty when
     * the network is consistent).  Reading only; never mutates
     * simulator state.  At most `maxViolations` are collected.
     */
    std::vector<Violation> audit(Cycle now) const;

    /** audit() + panic listing every violation when any is found. */
    void check(Cycle now) const;

    /**
     * Earliest createdCycle among all packets currently held anywhere
     * in the network (NIs, router buffers, channels), or INVALID_CYCLE
     * when empty.  Used by the watchdog's over-age scan.
     */
    Cycle oldestCreated() const;

    static constexpr std::size_t maxViolations = 64;

  private:
    struct LinkRecord
    {
        const Router *up;
        unsigned outDir;
        const Channel<Flit> *flitChan;
        const Channel<Credit> *creditChan;
        const Router *down;
        unsigned downIn;
    };

    void checkRouter(const Router &r, std::vector<Violation> &out) const;
    void checkLink(const LinkRecord &link,
                   std::vector<Violation> &out) const;
    void checkNis(std::vector<Violation> &out) const;
    void checkConservation(std::vector<Violation> &out) const;
    void checkActivity(Cycle now, std::vector<Violation> &out) const;

    unsigned vc_depth_;
    std::vector<const Router *> routers_;
    std::vector<const NetworkInterface *> nis_;
    std::vector<LinkRecord> links_;
    const std::uint64_t *inflight_ = nullptr;
    const std::uint64_t *flits_in_ = nullptr;
    const std::uint64_t *flits_out_ = nullptr;
    const ActiveSet *router_set_ = nullptr;
    const ActiveSet *ni_set_ = nullptr;
};

/**
 * Diagnostic report handed to the watchdog handler when a network
 * makes no progress for a full window (or a packet exceeds its age
 * bound).  `snapshotJson` is the structured network snapshot
 * (schema "tenoc-watchdog-v1"); the default handler writes it to
 * MeshNetworkParams::watchdogSnapshotPath and exits.
 */
struct WatchdogReport
{
    Cycle now = 0;
    Cycle window = 0;        ///< zero-progress cycles observed
    std::uint64_t inflight = 0;
    Cycle oldestAge = 0;     ///< age of the oldest stuck packet
    std::string reason;      ///< "no_progress" or "packet_age"
    std::string snapshotJson;
};

/** Watchdog callback; tests install one to observe firings instead of
 *  terminating the process. */
using WatchdogHandler = std::function<void(const WatchdogReport &)>;

} // namespace tenoc

#endif // TENOC_NOC_INVARIANTS_HH
