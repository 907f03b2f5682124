// Copyright (c) the sensord authors. Licensed under the Apache License 2.0.
//
// In-network approximate query processing (Section 9, made distributed).
//
// "One category of problems is to provide approximate answers to range
// queries with both spatial and temporal constraints ... the sensors can
// estimate the density model for the observations ... and answer the
// queries based on the estimated model."
//
// The flow is TAG-style (the system the paper built its simulator on):
// a query is injected at any aggregator, disseminated down the tree, each
// leaf answers *from its local density model* — no raw data moves — and
// partial aggregates are combined hop by hop on the way back up. Spatial
// selection falls out of the tree: inject at the leader of the region of
// interest. Each aggregator waits for its children up to a deadline, so a
// lossy radio degrades an answer's support count instead of wedging it.

#ifndef SENSORD_CORE_QUERY_PROCESSING_H_
#define SENSORD_CORE_QUERY_PROCESSING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/config.h"
#include "core/density_model.h"
#include "data/validate.h"
#include "net/network.h"
#include "net/node.h"
#include "util/math_utils.h"
#include "util/rng.h"

namespace sensord {

/// An aggregate over the window values inside an axis-aligned box.
struct AggregateQuery {
  enum class Kind {
    kCount,     ///< estimated number of window values in the box
    kFraction,  ///< that count over the total pooled window size
    kAverage,   ///< estimated mean of coordinate `average_dim` in the box
  };

  uint32_t id = 0;
  Kind kind = Kind::kCount;
  Point lo, hi;
  size_t average_dim = 0;
};

/// A resolved query.
struct QueryAnswer {
  uint32_t id = 0;
  double value = 0.0;        ///< the requested aggregate
  double support_count = 0;  ///< estimated values inside the box
  uint32_t leaves_reporting = 0;  ///< leaves whose answers arrived in time
};

/// Invoked at the injection node when a query resolves.
using QueryCallback = std::function<void(const QueryAnswer&)>;

/// Partial aggregate carried by kMsgQueryResponse.
struct QueryPartialPayload {
  uint32_t query_id = 0;
  double count = 0.0;         ///< estimated in-box values in this subtree
  double weighted_sum = 0.0;  ///< sum of (avg * count) for kAverage
  double window_total = 0.0;  ///< pooled window size of this subtree
  uint32_t leaves = 0;        ///< leaves that contributed
};

/// Payload of kMsgQueryRequest.
struct QueryRequestPayload {
  AggregateQuery query;
};

/// A leaf sensor that maintains a density model of its own stream and
/// answers queries from it. Raw readings pass the ingest firewall
/// (data/validate.h, default policy: non-finite readings are rejected and
/// counted in ingest.rejected.*) before the model sees them.
class QuerySensorNode : public Node {
 public:
  QuerySensorNode(const DensityModelConfig& config, Rng rng);

  void OnReading(const Point& value) override;
  void HandleMessage(const Message& msg) override;

  const DensityModel& model() const { return model_; }

 private:
  DensityModel model_;
  IngestValidator validator_{IngestPolicy{}};
};

/// An interior node that disseminates queries down and combines partial
/// answers up. The node where a query is injected resolves it and invokes
/// the callback.
class QueryAggregatorNode : public Node {
 public:
  /// `response_deadline`: how long to wait for children (seconds) before
  /// resolving with whatever partials arrived.
  explicit QueryAggregatorNode(double response_deadline = 1.0);

  /// Starts a query from this node over its subtree. `callback` fires when
  /// the query resolves (after all children answered or the deadline
  /// passed). Pre: node is registered with a simulator.
  void InjectQuery(const AggregateQuery& query, QueryCallback callback);

  void HandleMessage(const Message& msg) override;

 private:
  struct PendingQuery {
    AggregateQuery query;
    QueryPartialPayload accumulated;
    uint32_t awaiting = 0;      // children yet to answer
    bool local_origin = false;  // resolve here (vs forward up)
    QueryCallback callback;
    bool resolved = false;
  };

  void Disseminate(const AggregateQuery& query, bool local_origin,
                   QueryCallback callback);
  void Accumulate(PendingQuery* pending, const QueryPartialPayload& part);
  void Resolve(uint32_t query_id);

  double response_deadline_;
  std::map<uint32_t, PendingQuery> pending_;
};

/// Computes a leaf's partial answer from its model — exposed for tests. A
/// leaf whose model is not ready, or that gets a query its model cannot
/// answer (a box without the model's dimensionality, a NaN bound, an
/// average over an axis the model lacks), reports count 0 and leaves 1.
QueryPartialPayload AnswerFromModel(const DensityModel& model,
                                    const AggregateQuery& query);

/// Folds a resolved accumulation into the final answer — exposed for tests.
QueryAnswer FinalizeAnswer(const AggregateQuery& query,
                           const QueryPartialPayload& accumulated);

}  // namespace sensord

#endif  // SENSORD_CORE_QUERY_PROCESSING_H_
