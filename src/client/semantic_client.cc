#include "client/semantic_client.h"

#include "common/logging.h"

namespace mars::client {

SemanticClient::SemanticClient(const Options& options,
                               const geometry::Box2& space,
                               const server::Server* server,
                               net::SimulatedLink* link)
    : options_(options),
      policy_(options.policy != nullptr ? options.policy : &owned_policy_),
      viewport_(space, options.query_fraction, options.query_fraction),
      server_(server),
      link_(link) {
  MARS_CHECK(server != nullptr);
  MARS_CHECK(link != nullptr);
}

SemanticFrameReport SemanticClient::Step(const geometry::Vec2& position,
                                         double speed) {
  SemanticFrameReport report;
  const geometry::Box2 window = viewport_.WindowAt(position);
  const double w_min = policy_->MapSpeedToResolution(speed);

  const std::vector<server::SubQuery> plan =
      cache_.PlanAndInsert(window, w_min);
  report.sub_queries = static_cast<int64_t>(plan.size());
  report.coverage = cache_.last_coverage();

  if (!plan.empty()) {
    const server::QueryResult result = server_->Execute(plan, &session_);
    report.new_records = static_cast<int64_t>(result.records.size());
    report.response_bytes = result.response_bytes;
    report.node_accesses = result.node_accesses;
    report.response_seconds =
        link_->Exchange(result.request_bytes, result.response_bytes, speed);
  }

  total_bytes_ += report.response_bytes;
  total_response_seconds_ += report.response_seconds;
  ++frames_;
  return report;
}

}  // namespace mars::client
