/**
 * @file
 * The 2D mesh: node coordinates, router kinds (full/half) and
 * memory-controller placements.
 *
 * Two placements from the paper:
 *  - TOP_BOTTOM (Fig. 3): MCs on the top and bottom rows, adjacent,
 *    as in Intel's 80-core and Tilera TILE64 layouts.
 *  - CHECKERBOARD (Fig. 12): MCs staggered across the chip at
 *    half-router (odd-parity) positions.
 *
 * Router kinds: in a checkerboard organization routers at odd-parity
 * cells ((x + y) % 2 == 1) are half-routers (Sec. IV-A).
 */

#ifndef TENOC_NOC_TOPOLOGY_HH
#define TENOC_NOC_TOPOLOGY_HH

#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace tenoc
{

/** Mesh port directions (also router port indices 0..3). */
enum Direction : unsigned
{
    DIR_WEST = 0,
    DIR_EAST = 1,
    DIR_NORTH = 2,
    DIR_SOUTH = 3,
    NUM_DIRS = 4
};

/** Sentinel returned by routing when the packet has arrived. */
inline constexpr unsigned PORT_EJECT = NUM_DIRS;

/**
 * @return the opposite mesh direction.
 *
 * Panics on any non-direction input (e.g. PORT_EJECT or an injection
 * port index): callers that reach here with a port index have a wiring
 * or port-arithmetic bug, and silently mapping it to a direction would
 * mis-route instead of failing loudly.  Still usable in constant
 * expressions for genuine directions.
 */
constexpr Direction
opposite(Direction d)
{
    switch (d) {
      case DIR_WEST: return DIR_EAST;
      case DIR_EAST: return DIR_WEST;
      case DIR_NORTH: return DIR_SOUTH;
      case DIR_SOUTH: return DIR_NORTH;
      default: break;
    }
    tenoc_panic("opposite() of non-direction port index ",
                static_cast<unsigned>(d));
}

/**
 * @return short name ("W","E","N","S") of a direction, or "EJ" for
 * PORT_EJECT (the routing sentinel).  Panics beyond that: port indices
 * above PORT_EJECT are router-local injection/ejection ports whose
 * meaning depends on port side — use inputPortName()/outputPortName().
 */
const char *dirName(unsigned d);

/** @return label of a router *input* port index ("W".."S", "INJ0"..). */
std::string inputPortName(unsigned in);

/** @return label of a router *output* port index ("W".."S", "EJ0"..). */
std::string outputPortName(unsigned out);

/** Memory controller placement schemes. */
enum class McPlacement
{
    TOP_BOTTOM,   ///< baseline: MCs packed on top and bottom rows
    CHECKERBOARD, ///< staggered placement at half-router cells
    CUSTOM        ///< user-specified coordinates
};

/** Topology construction parameters. */
struct TopologyParams
{
    unsigned rows = 6;
    unsigned cols = 6;
    unsigned numMcs = 8;
    McPlacement placement = McPlacement::TOP_BOTTOM;
    /** When true, odd-parity cells hold half-routers (Sec. IV-A). */
    bool checkerboardRouters = false;
    /** MC coordinates for McPlacement::CUSTOM, as (x, y) pairs. */
    std::vector<std::pair<unsigned, unsigned>> customMcs;
};

/**
 * Immutable mesh topology with node/coordinate mapping, MC placement,
 * and router-kind queries.  Coordinates: x grows east, y grows south;
 * node ids are row-major (id = y * cols + x).
 */
class Topology
{
  public:
    explicit Topology(const TopologyParams &params);

    unsigned rows() const { return params_.rows; }
    unsigned cols() const { return params_.cols; }
    unsigned numNodes() const { return params_.rows * params_.cols; }

    NodeId nodeAt(unsigned x, unsigned y) const;
    unsigned xOf(NodeId n) const { return n % params_.cols; }
    unsigned yOf(NodeId n) const { return n / params_.cols; }

    /** @return true if the node hosts a memory controller + L2 bank. */
    bool isMc(NodeId n) const { return is_mc_[n]; }

    /** @return true if the node's router is a half-router. */
    bool isHalfRouter(NodeId n) const { return is_half_[n]; }

    /** @return checkerboard parity of a cell (1 = half-router cell). */
    static unsigned parity(unsigned x, unsigned y) { return (x + y) % 2; }

    const std::vector<NodeId> &mcNodes() const { return mc_nodes_; }
    const std::vector<NodeId> &computeNodes() const
    {
        return compute_nodes_;
    }

    /**
     * @return the neighbour of `n` in direction `d`, or INVALID_NODE
     * past an edge.
     */
    NodeId neighbor(NodeId n, Direction d) const;

    /** Minimal (Manhattan) hop count between two nodes. */
    unsigned hopDistance(NodeId a, NodeId b) const;

    const TopologyParams &params() const { return params_; }

  private:
    void placeMcs();
    void validate() const;

    TopologyParams params_;
    std::vector<bool> is_mc_;
    std::vector<bool> is_half_;
    std::vector<NodeId> mc_nodes_;
    std::vector<NodeId> compute_nodes_;
};

/**
 * The staggered "X" placement used as the default checkerboard MC
 * placement for a 6x6 mesh with 8 MCs (all at odd-parity cells, spread
 * over both diagonals; Sec. V-B picks the best of several valid
 * staggered placements).
 */
std::vector<std::pair<unsigned, unsigned>> defaultCheckerboardMcs6x6();

/**
 * Renders the mesh as ASCII art: one cell per router, `M` for MC
 * nodes, `C` for compute nodes, lowercase for half-routers
 * (e.g. `m` = MC on a half-router, the checkerboard requirement).
 */
std::string renderTopology(const Topology &topo);

} // namespace tenoc

#endif // TENOC_NOC_TOPOLOGY_HH
