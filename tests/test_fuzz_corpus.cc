/**
 * @file
 * Replays every minimized fuzz repro checked into tests/corpus/
 * through the full differential-testing oracle battery.  Each corpus
 * file is a configuration that once exposed a bug; it must parse, be
 * legal, and pass forever.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "noc/golden/diff.hh"
#include "noc/mesh_network.hh"

#ifndef TENOC_CORPUS_DIR
#error "TENOC_CORPUS_DIR must point at tests/corpus"
#endif

namespace tenoc
{
namespace
{

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(TENOC_CORPUS_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Reads and parses one corpus file (fails the test on error). */
DiffConfig
loadCorpusFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "unreadable corpus file " << path;
    std::ostringstream text;
    text << in.rdbuf();
    DiffConfig cfg;
    std::string err;
    EXPECT_TRUE(DiffConfig::parse(text.str(), cfg, &err)) << err;
    return cfg;
}

TEST(FuzzCorpus, HasSeedEntries)
{
    // The corpus is never empty: the burn-down checked in one repro
    // per bug the fuzzer surfaced.
    EXPECT_GE(corpusFiles().size(), 3u);

    // One directed entry keeps routers with more than 64 (input, VC)
    // requestors, i.e. multi-word stage-ready and VA requestor sets,
    // under the oracle battery.
    const DiffConfig cfg = loadCorpusFile(
        std::filesystem::path(TENOC_CORPUS_DIR) / "wide_router_cr.cfg");
    MeshNetwork net(cfg.toNetParams());
    unsigned widest = 0;
    for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
        const Router &r = net.router(n);
        widest = std::max(widest, r.numInputs() * r.numVcs());
    }
    EXPECT_GT(widest, 64u);
}

TEST(FuzzCorpus, EveryReproReplaysClean)
{
    for (const auto &path : corpusFiles()) {
        SCOPED_TRACE(path.filename().string());
        const DiffConfig cfg = loadCorpusFile(path);
        if (::testing::Test::HasFailure())
            return;

        const DiffReport rep = runDiff(cfg);
        EXPECT_TRUE(rep.ok())
            << rep.violations.size() << " violations, first: "
            << rep.violations.front();
    }
}

} // namespace
} // namespace tenoc
