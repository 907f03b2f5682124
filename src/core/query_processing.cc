#include "core/query_processing.h"

#include <cmath>
#include <utility>

#include "core/protocol.h"
#include "core/range_query.h"

#include "util/check.h"

namespace sensord {
namespace {

// Whether a query that arrived over the network can be asked of a
// d-dimensional model: a box of d coordinates, no NaN bound, and, for an
// average, an axis the model has.
bool Answerable(const AggregateQuery& query, size_t d) {
  if (query.lo.size() != d || query.hi.size() != d) return false;
  if (query.kind == AggregateQuery::Kind::kAverage && query.average_dim >= d) {
    return false;
  }
  for (size_t i = 0; i < d; ++i) {
    if (std::isnan(query.lo[i]) || std::isnan(query.hi[i])) return false;
  }
  return true;
}

}  // namespace

QueryPartialPayload AnswerFromModel(const DensityModel& model,
                                    const AggregateQuery& query) {
  QueryPartialPayload part;
  part.query_id = query.id;
  part.leaves = 1;
  // A malformed query gets the answer of a leaf with no model yet.
  if (!model.Ready() || !Answerable(query, model.config().dimensions)) {
    return part;
  }

  part.window_total = model.WindowCount();
  const RangeQueryEngine engine(&model.Estimator(), part.window_total);
  part.count = engine.Count(query.lo, query.hi);
  if (query.kind == AggregateQuery::Kind::kAverage && part.count > 0.0) {
    auto avg = engine.Average(query.average_dim, query.lo, query.hi);
    part.weighted_sum = avg.ok() ? *avg * part.count : 0.0;
  }
  return part;
}

QueryAnswer FinalizeAnswer(const AggregateQuery& query,
                           const QueryPartialPayload& accumulated) {
  QueryAnswer answer;
  answer.id = query.id;
  answer.support_count = accumulated.count;
  answer.leaves_reporting = accumulated.leaves;
  switch (query.kind) {
    case AggregateQuery::Kind::kCount:
      answer.value = accumulated.count;
      break;
    case AggregateQuery::Kind::kFraction:
      answer.value = accumulated.window_total > 0.0
                         ? accumulated.count / accumulated.window_total
                         : 0.0;
      break;
    case AggregateQuery::Kind::kAverage:
      answer.value = accumulated.count > 0.0
                         ? accumulated.weighted_sum / accumulated.count
                         : 0.0;
      break;
  }
  return answer;
}

QuerySensorNode::QuerySensorNode(const DensityModelConfig& config, Rng rng)
    : model_(config, rng) {}

void QuerySensorNode::OnReading(const Point& value) {
  if (validator_.Check(value) != IngestVerdict::kAccept) return;
  model_.Observe(value);
}

void QuerySensorNode::HandleMessage(const Message& msg) {
  if (msg.kind != kMsgQueryRequest) return;
  const auto& request =
      std::any_cast<const QueryRequestPayload&>(msg.payload);
  const QueryPartialPayload part = AnswerFromModel(model_, request.query);

  Message reply;
  reply.from = id();
  reply.to = msg.from;
  reply.kind = kMsgQueryResponse;
  reply.size_numbers = 5;  // id + count + weighted_sum + total + leaves
  reply.payload = part;
  sim()->Send(std::move(reply));
}

QueryAggregatorNode::QueryAggregatorNode(double response_deadline)
    : response_deadline_(response_deadline) {
  SENSORD_CHECK_GT(response_deadline_, 0.0);
}

void QueryAggregatorNode::InjectQuery(const AggregateQuery& query,
                                      QueryCallback callback) {
  SENSORD_CHECK(sim() != nullptr);
  Disseminate(query, /*local_origin=*/true, std::move(callback));
}

void QueryAggregatorNode::Disseminate(const AggregateQuery& query,
                                      bool local_origin,
                                      QueryCallback callback) {
  PendingQuery pending;
  pending.query = query;
  pending.accumulated.query_id = query.id;
  pending.awaiting = static_cast<uint32_t>(children().size());
  pending.local_origin = local_origin;
  pending.callback = std::move(callback);
  const auto [it, inserted] = pending_.emplace(query.id, std::move(pending));
  SENSORD_CHECK(inserted && "duplicate in-flight query id");
  (void)it;

  for (NodeId child : children()) {
    Message msg;
    msg.from = id();
    msg.to = child;
    msg.kind = kMsgQueryRequest;
    msg.size_numbers = 2 * query.lo.size() + 3;  // box + id/kind/dim
    msg.payload = QueryRequestPayload{query};
    sim()->Send(std::move(msg));
  }

  if (children().empty()) {
    // Degenerate aggregator with no subtree: resolve immediately.
    Resolve(query.id);
    return;
  }
  sim()->ScheduleAfter(response_deadline_, [this, query_id = query.id]() {
    Resolve(query_id);
  });
}

void QueryAggregatorNode::Accumulate(PendingQuery* pending,
                                     const QueryPartialPayload& part) {
  pending->accumulated.count += part.count;
  pending->accumulated.weighted_sum += part.weighted_sum;
  pending->accumulated.window_total += part.window_total;
  pending->accumulated.leaves += part.leaves;
}

void QueryAggregatorNode::Resolve(uint32_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end() || it->second.resolved) return;
  PendingQuery& pending = it->second;
  pending.resolved = true;

  if (pending.local_origin) {
    if (pending.callback) {
      pending.callback(FinalizeAnswer(pending.query, pending.accumulated));
    }
  } else if (parent() != kNoNode) {
    Message msg;
    msg.from = id();
    msg.to = parent();
    msg.kind = kMsgQueryResponse;
    msg.size_numbers = 5;
    msg.payload = pending.accumulated;
    sim()->Send(std::move(msg));
  }
  pending_.erase(it);
}

void QueryAggregatorNode::HandleMessage(const Message& msg) {
  switch (msg.kind) {
    case kMsgQueryRequest: {
      const auto& request =
          std::any_cast<const QueryRequestPayload&>(msg.payload);
      Disseminate(request.query, /*local_origin=*/false, nullptr);
      break;
    }
    case kMsgQueryResponse: {
      const auto& part =
          std::any_cast<const QueryPartialPayload&>(msg.payload);
      const auto it = pending_.find(part.query_id);
      if (it == pending_.end() || it->second.resolved) break;  // late reply
      Accumulate(&it->second, part);
      if (--it->second.awaiting == 0) Resolve(part.query_id);
      break;
    }
    default:
      break;
  }
}

}  // namespace sensord
