// Graph I/O round-trip and malformed-input tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include <unistd.h>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "testing/random_inputs.hpp"

namespace ppsi::io {
namespace {

std::string edge_list_string(const Graph& g) {
  std::stringstream buffer;
  write_edge_list(g, buffer);
  return buffer.str();
}

std::string dimacs_string(const Graph& g) {
  std::stringstream buffer;
  write_dimacs(g, buffer);
  return buffer.str();
}

TEST(EdgeListIo, RoundTrip) {
  const Graph g = gen::apollonian(40, 3).graph();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph h = read_edge_list(buffer);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // The source keeps rotation order; compare as sets.
  EdgeList a = g.edge_list();
  EdgeList b = h.edge_list();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(DimacsIo, RoundTrip) {
  const Graph g = gen::grid_graph(6, 7);
  std::stringstream buffer;
  write_dimacs(g, buffer);
  const Graph h = read_dimacs(buffer);
  EXPECT_EQ(h.edge_list(), g.edge_list());
}

// write -> read -> write must be byte-identical. Readers build graphs with
// from_edges (sorted, deduplicated adjacency), so any parsed graph
// serializes canonically; rotation-order graphs are normalized the same way
// before the first write.
class ByteIdenticalRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ByteIdenticalRoundTrip, EdgeList) {
  const Graph raw = testing::random_target(GetParam());
  const Graph g = Graph::from_edges(raw.num_vertices(), raw.edge_list());
  const std::string first = edge_list_string(g);
  std::stringstream in(first);
  EXPECT_EQ(edge_list_string(read_edge_list(in)), first)
      << "seed " << GetParam();
}

TEST_P(ByteIdenticalRoundTrip, Dimacs) {
  const Graph raw = testing::random_target(GetParam());
  const Graph g = Graph::from_edges(raw.num_vertices(), raw.edge_list());
  const std::string first = dimacs_string(g);
  std::stringstream in(first);
  EXPECT_EQ(dimacs_string(read_dimacs(in)), first) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteIdenticalRoundTrip,
                         ::testing::Range(0, 25));

TEST(DimacsIo, ParsesCommentsAndHeader) {
  std::stringstream in(
      "c a comment\nc another\np edge 3 2\ne 1 2\ne 2 3\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(EdgeListIo, RejectsMalformed) {
  {
    std::stringstream in("not a header");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::stringstream in("3 2\n0 1\n");  // truncated
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::stringstream in("3 1\n0 7\n");  // out of range
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::stringstream in("3 1\n0 x\n");  // non-numeric endpoint
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::stringstream in("");  // empty input
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
}

TEST(DimacsIo, RejectsMalformed) {
  {
    std::stringstream in("e 1 2\n");  // edge before header
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    std::stringstream in("p edge 2 1\ne 0 1\n");  // 1-based violation
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    std::stringstream in("p matrix 2 1\ne 1 2\n");  // wrong format tag
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    std::stringstream in("");
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    // Fewer edges than the problem line declares.
    std::stringstream in("p edge 3 2\ne 1 2\n");
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    // More edges than the problem line declares.
    std::stringstream in("p edge 3 1\ne 1 2\ne 2 3\n");
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
  {
    // Two problem lines.
    std::stringstream in("p edge 3 1\np edge 3 1\ne 1 2\n");
    EXPECT_THROW(read_dimacs(in), std::invalid_argument);
  }
}

TEST(FileIo, RoundTripThroughDisk) {
  const Graph g = gen::cycle_graph(9);
  // Per-process names: ctest runs the omp1 and omp4 registrations of this
  // suite concurrently, and a shared file races between them.
  const std::string stem =
      ::testing::TempDir() + "/ppsi_io_test_" + std::to_string(::getpid());
  const std::string path = stem + ".txt";
  write_graph_file(g, path);
  const Graph h = read_graph_file(path);
  EXPECT_EQ(h.edge_list(), g.edge_list());
  const std::string dimacs = stem + ".col";
  write_graph_file(g, dimacs);
  EXPECT_EQ(read_graph_file(dimacs).edge_list(), g.edge_list());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_graph_file("/nonexistent/ppsi.graph"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hostile-input corpus: the hardened try_* readers must reject every entry
// with StatusCode::kMalformedInput — never assert, crash, or allocate
// proportionally to an attacker-declared count — and the legacy throwing
// readers must surface the same rejection as std::invalid_argument.

struct HostileCase {
  const char* name;
  const char* input;
};

TEST(HostileIo, EdgeListCorpusRejectsCleanly) {
  const HostileCase corpus[] = {
      {"empty", ""},
      {"garbage_header", "abc def"},
      {"missing_edge_count", "3"},
      {"negative_count", "-3 1\n0 1"},
      {"truncated_edges", "3 2\n0 1"},
      {"edge_count_over_simple_max", "3 99"},
      {"vertex_count_over_cap", "300000000 1\n0 1"},
      {"overflow_vertex_count", "18446744073709551616 1\n0 1"},
      {"overflow_edge_count", "4 18446744073709551615"},
      {"endpoint_out_of_range", "3 1\n0 5"},
      {"self_loop", "3 1\n1 1"},
      {"duplicate_edge", "3 2\n0 1\n0 1"},
      {"duplicate_edge_reversed", "3 2\n0 1\n1 0"},
      {"edges_into_zero_vertices", "0 1\n0 0"},
  };
  for (const auto& c : corpus) {
    std::istringstream for_status(c.input);
    const auto result = io::try_read_edge_list(for_status);
    EXPECT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput) << c.name;
    std::istringstream for_throw(c.input);
    EXPECT_THROW(io::read_edge_list(for_throw), std::invalid_argument)
        << c.name;
  }
}

TEST(HostileIo, DimacsCorpusRejectsCleanly) {
  const HostileCase corpus[] = {
      {"empty", ""},
      {"comments_only", "c nothing here\nc still nothing\n"},
      {"duplicate_problem_line", "p edge 3 1\np edge 3 1\ne 1 2\n"},
      {"edge_before_problem_line", "e 1 2\n"},
      {"bad_format_token", "p graph 3 1\ne 1 2\n"},
      {"trailing_tokens_on_problem", "p edge 3 1 junk\ne 1 2\n"},
      {"trailing_tokens_on_edge", "p edge 3 1\ne 1 2 junk\n"},
      {"unknown_line_kind", "p edge 3 1\nq 1 2\n"},
      {"zero_based_endpoint", "p edge 3 1\ne 0 2\n"},
      {"endpoint_out_of_range", "p edge 3 1\ne 1 9\n"},
      {"self_loop", "p edge 3 1\ne 2 2\n"},
      {"duplicate_edge", "p edge 3 2\ne 1 2\ne 2 1\n"},
      {"fewer_edges_than_declared", "p edge 3 2\ne 1 2\n"},
      {"more_edges_than_declared", "p edge 3 1\ne 1 2\ne 2 3\n"},
      {"vertex_count_over_cap", "p edge 300000000 1\ne 1 2\n"},
      {"edge_count_over_simple_max", "p edge 3 99\ne 1 2\n"},
      {"overflow_edge_count", "p edge 4 18446744073709551615\n"},
  };
  for (const auto& c : corpus) {
    std::istringstream for_status(c.input);
    const auto result = io::try_read_dimacs(for_status);
    EXPECT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput) << c.name;
    std::istringstream for_throw(c.input);
    EXPECT_THROW(io::read_dimacs(for_throw), std::invalid_argument) << c.name;
  }
}

TEST(HostileIo, TryReadersAcceptWellFormedInput) {
  std::istringstream edge_list("4 3\n0 1\n1 2\n2 3\n");
  const auto from_list = io::try_read_edge_list(edge_list);
  ASSERT_TRUE(from_list.ok());
  EXPECT_EQ(from_list->num_vertices(), 4u);
  EXPECT_EQ(from_list->num_edges(), 3u);

  std::istringstream dimacs("c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n");
  const auto from_dimacs = io::try_read_dimacs(dimacs);
  ASSERT_TRUE(from_dimacs.ok());
  EXPECT_EQ(from_dimacs->num_vertices(), 4u);
  EXPECT_EQ(from_dimacs->edge_list(), from_list->edge_list());
}

TEST(HostileIo, MissingFileIsAStatusNotAThrow) {
  const auto result = io::try_read_graph_file("/nonexistent/ppsi-io-test.g");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kMalformedInput);
}

}  // namespace
}  // namespace ppsi::io
