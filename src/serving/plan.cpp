#include "serving/plan.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "collective/collective_ops.hpp"
#include "collective/fnf.hpp"
#include "mapping/mapping.hpp"
#include "obs/export.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace netconst::serving {

const char* plan_kind_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::BroadcastTree:
      return "broadcast_tree";
    case PlanKind::TopologyMapping:
      return "topology_mapping";
  }
  return "unknown";
}

PlanRequest canonical_plan_request(PlanKind kind,
                                   std::vector<std::size_t> nodes,
                                   std::size_t root, std::uint64_t bytes) {
  PlanRequest request;
  request.kind = kind;
  request.nodes = std::move(nodes);
  request.root = root;
  request.bytes = bytes;
  canonicalize_plan_request(request);
  return request;
}

void canonicalize_plan_request(PlanRequest& request) {
  std::vector<std::size_t>& nodes = request.nodes;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  NETCONST_CHECK(nodes.size() >= 2, "a plan needs at least two nodes");
  NETCONST_CHECK(request.bytes > 0, "message size must be positive");
  if (request.kind == PlanKind::BroadcastTree) {
    NETCONST_CHECK(
        std::binary_search(nodes.begin(), nodes.end(), request.root),
        "broadcast root must be a member of the node set");
  } else {
    request.root = 0;
  }
}

std::uint64_t plan_request_hash(std::size_t tenant_index,
                                std::uint64_t version,
                                const PlanRequest& request) {
  Fnv1a hash;
  hash.mix(static_cast<std::uint64_t>(tenant_index));
  hash.mix(version);
  hash.mix(static_cast<std::uint64_t>(request.kind));
  hash.mix(static_cast<std::uint64_t>(request.root));
  hash.mix(request.bytes);
  hash.mix(static_cast<std::uint64_t>(request.nodes.size()));
  for (const std::size_t node : request.nodes) {
    hash.mix(static_cast<std::uint64_t>(node));
  }
  return hash.state;
}

namespace {

void append_integer(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto end = std::to_chars(digits, std::end(digits), value).ptr;
  out.append(digits, end);
}

/// Round-trip precision, the same bytes as a precision(17) ostream.
void append_real(std::string& out, double value) {
  char digits[32];
  const auto end = std::to_chars(digits, std::end(digits), value,
                                 std::chars_format::general, 17)
                       .ptr;
  out.append(digits, end);
}

void append_list(std::string& out, const std::vector<std::size_t>& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ',';
    append_integer(out, values[k]);
  }
  out += ']';
}

void write_plan_json(Plan& plan) {
  std::string& out = plan.json;
  out.reserve(160 + plan.tenant.size() +
              16 * (plan.request.nodes.size() + plan.edges.size() +
                    plan.assignment.size()));
  out += "{\"tenant\":\"";
  out += obs::json_escape(plan.tenant);
  out += "\",\"version\":";
  append_integer(out, plan.version);
  out += ",\"kind\":\"";
  out += plan_kind_name(plan.request.kind);
  out += "\",\"bytes\":";
  append_integer(out, plan.request.bytes);
  out += ",\"nodes\":";
  append_list(out, plan.request.nodes);
  if (plan.request.kind == PlanKind::BroadcastTree) {
    out += ",\"root\":";
    append_integer(out, plan.request.root);
    out += ",\"edges\":[";
    for (std::size_t k = 0; k < plan.edges.size(); ++k) {
      if (k > 0) out += ',';
      out += '[';
      append_integer(out, plan.edges[k].parent);
      out += ',';
      append_integer(out, plan.edges[k].child);
      out += ']';
    }
    out += ']';
  } else {
    out += ",\"assignment\":";
    append_list(out, plan.assignment);
  }
  out += ",\"predicted_seconds\":";
  append_real(out, plan.predicted_seconds);
  out += '}';
  out.shrink_to_fit();  // cached plans keep only the bytes they serve
}

/// Append the tree's edges in send order (pre-order, children in stored
/// order — the order the alpha-beta cost model charges).
void collect_edges(const collective::CommTree& tree, std::size_t node,
                   const std::vector<std::size_t>& members,
                   std::vector<Plan::TreeEdge>& edges) {
  for (const std::size_t child : tree.children(node)) {
    edges.push_back({members[node], members[child]});
    collect_edges(tree, child, members, edges);
  }
}

}  // namespace

Plan compute_plan(const ConstantSnapshot& snapshot,
                  const PlanRequest& request) {
  const netmodel::PerformanceMatrix& full = snapshot.component.constant;
  NETCONST_CHECK(!request.nodes.empty() &&
                     request.nodes.back() < full.size(),
                 "plan request node ids exceed the tenant's cluster");

  Plan plan;
  plan.request = request;
  plan.tenant = snapshot.tenant;
  plan.version = snapshot.version;

  const netmodel::PerformanceMatrix sub = full.restrict_to(request.nodes);
  if (request.kind == PlanKind::BroadcastTree) {
    // Root position inside the canonical (sorted) node set.
    const std::size_t root_pos = static_cast<std::size_t>(
        std::lower_bound(request.nodes.begin(), request.nodes.end(),
                         request.root) -
        request.nodes.begin());
    const collective::CommTree tree =
        collective::fnf_tree(sub.weight_matrix(request.bytes), root_pos);
    plan.edges.reserve(request.nodes.size() - 1);
    collect_edges(tree, root_pos, request.nodes, plan.edges);
    plan.predicted_seconds = collective::collective_time(
        tree, sub, collective::Collective::Broadcast, request.bytes);
  } else {
    // Dense uniform task graph: every ordered pair exchanges `bytes`.
    mapping::TaskGraph tasks(request.nodes.size());
    for (std::size_t u = 0; u < request.nodes.size(); ++u) {
      for (std::size_t v = 0; v < request.nodes.size(); ++v) {
        if (u != v) tasks.set_volume(u, v, static_cast<double>(request.bytes));
      }
    }
    // No swap beats greedy here: MappingCost.UniformGraphIsBijectionInvariant
    const mapping::Mapping mapped = mapping::greedy_mapping(
        tasks, mapping::MachineGraph::from_performance(sub));
    plan.assignment.reserve(mapped.size());
    for (const std::size_t machine : mapped) {
      plan.assignment.push_back(request.nodes[machine]);
    }
    plan.predicted_seconds = mapping::mapping_cost(mapped, tasks, sub);
  }
  write_plan_json(plan);
  return plan;
}

}  // namespace netconst::serving
