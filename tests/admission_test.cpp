// Admission-control layer: VOQ eviction order, the shed policies behind
// Network::try_submit's overflow verdict, and the accounting contract that
// overload can never wedge a run (every submission resolves as delivered,
// dropped, or shed).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "nic/admission.hpp"
#include "nic/voq.hpp"
#include "sim/simulator.hpp"
#include "switching/tdm.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

Message make_msg(MessageId id, NodeId src, NodeId dst, std::uint64_t bytes,
                 TimeNs submit_time) {
  Message msg;
  msg.id = id;
  msg.src = src;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.submit_time = submit_time;
  return msg;
}

TEST(VoqEvict, OrdersBySubmitTimeThenId) {
  VoqSet voqs(4);
  voqs.push(make_msg(3, 0, 1, 64, 10_ns));
  voqs.push(make_msg(1, 0, 2, 64, 5_ns));
  voqs.push(make_msg(2, 0, 3, 64, 5_ns));

  // Oldest = lowest (submit_time, id); ties broken by id.
  auto victim = voqs.evict(/*oldest=*/true, TimeNs::never(), std::nullopt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 1u);

  victim = voqs.evict(/*oldest=*/false, TimeNs::never(), std::nullopt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 3u);

  EXPECT_EQ(voqs.total_depth(), 1u);
  EXPECT_EQ(voqs.total_bytes(), 64u);
  // The emptied queues' request bits are cleared, the survivor's is set.
  EXPECT_FALSE(voqs.pending().get(1));
  EXPECT_FALSE(voqs.pending().get(2));
  EXPECT_TRUE(voqs.pending().get(3));
}

TEST(VoqEvict, RespectsCutoffAndProtectedDestination) {
  VoqSet voqs(4);
  voqs.push(make_msg(1, 0, 1, 64, 100_ns));
  voqs.push(make_msg(2, 0, 2, 64, 200_ns));

  // Nothing is old enough: a cutoff before every submit time finds no victim.
  EXPECT_FALSE(voqs.evict(true, 99_ns, std::nullopt).has_value());
  // Deadline-style cutoff: only the message at/before the cutoff qualifies.
  auto victim = voqs.evict(true, 100_ns, std::nullopt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 1u);

  // The head of a protected destination (an in-flight worm) is untouchable.
  EXPECT_FALSE(voqs.evict(true, TimeNs::never(), NodeId{2}).has_value());
}

TEST(VoqEvict, SkipsPartiallyConsumedHead) {
  VoqSet voqs(4);
  voqs.push(make_msg(1, 0, 1, 100, 0_ns));
  voqs.push(make_msg(2, 0, 2, 100, 1_ns));
  Message done;
  // Move 30 bytes of the head through the fabric: it is no longer sheddable.
  EXPECT_EQ(voqs.consume(1, 30, &done), 30u);
  auto victim = voqs.evict(/*oldest=*/true, TimeNs::never(), std::nullopt);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 2u);
}

// Network-level policy tests: a dynamic-TDM network at time zero queues
// every submission (no slot has ticked yet), so admission decisions are
// observable synchronously through try_submit outcomes and the shed handler.
class AdmissionPolicyTest : public ::testing::Test {
 protected:
  std::unique_ptr<TdmNetwork> make_net(ShedPolicy policy,
                                       std::size_t capacity_msgs = 2) {
    SystemParams params;
    params.num_nodes = 4;
    params.admission.capacity_msgs = capacity_msgs;
    params.admission.policy = policy;
    auto net = std::make_unique<TdmNetwork>(sim_, params, TdmNetwork::Options{});
    net->set_shed_handler([this](const Message& msg) {
      shed_ids_.push_back(msg.id);
    });
    return net;
  }

  Simulator sim_;
  std::vector<MessageId> shed_ids_;
};

TEST_F(AdmissionPolicyTest, TailDropShedsTheNewcomer) {
  auto net = make_net(ShedPolicy::kTailDrop);
  EXPECT_EQ(net->try_submit(0, 1, 64).status, Network::SubmitStatus::kAccepted);
  EXPECT_EQ(net->try_submit(0, 2, 64).status, Network::SubmitStatus::kAccepted);
  const auto outcome = net->try_submit(0, 3, 64);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kShed);
  EXPECT_EQ(shed_ids_, std::vector<MessageId>{3});
  // Shed messages still count as submitted: the ledger never loses them.
  EXPECT_EQ(net->submitted_count(), 3u);
  EXPECT_EQ(net->shed_messages(), 1u);
  EXPECT_EQ(net->shed_bytes(), 64u);
  EXPECT_EQ(net->counters().value("shed_newest"), 1u);
}

TEST_F(AdmissionPolicyTest, DropOldestEvictsToAdmitTheNewcomer) {
  auto net = make_net(ShedPolicy::kDropOldest);
  net->try_submit(0, 1, 64);
  net->try_submit(0, 2, 64);
  const auto outcome = net->try_submit(0, 3, 64);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kAccepted);
  EXPECT_EQ(shed_ids_, std::vector<MessageId>{1});  // FIFO push-out
  EXPECT_EQ(net->counters().value("shed_oldest"), 1u);
}

TEST_F(AdmissionPolicyTest, DropNewestEvictsTheYoungestQueued) {
  auto net = make_net(ShedPolicy::kDropNewest);
  net->try_submit(0, 1, 64);
  net->try_submit(0, 2, 64);
  const auto outcome = net->try_submit(0, 3, 64);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kAccepted);
  EXPECT_EQ(shed_ids_, std::vector<MessageId>{2});  // LIFO push-out
  EXPECT_EQ(net->counters().value("shed_newest"), 1u);
}

TEST_F(AdmissionPolicyTest, DeadlineFallsBackToNewcomerWhenNothingExpired) {
  auto net = make_net(ShedPolicy::kDeadline);
  net->try_submit(0, 1, 64);
  net->try_submit(0, 2, 64);
  // Everything queued is fresh (age 0 < deadline): the newcomer is shed.
  const auto outcome = net->try_submit(0, 3, 64);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kShed);
  EXPECT_EQ(shed_ids_, std::vector<MessageId>{3});
  EXPECT_EQ(net->counters().value("shed_newest"), 1u);
  EXPECT_EQ(net->counters().value("shed_deadline"), 0u);
}

TEST_F(AdmissionPolicyTest, BackpressureRefusesWithoutConsumingAnId) {
  auto net = make_net(ShedPolicy::kBackpressure);
  net->try_submit(0, 1, 64);
  net->try_submit(0, 2, 64);
  const auto outcome = net->try_submit(0, 3, 64);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kBackpressure);
  // Nothing entered the ledger: no id, no shed, retry later.
  EXPECT_EQ(net->submitted_count(), 2u);
  EXPECT_EQ(net->shed_messages(), 0u);
  EXPECT_TRUE(shed_ids_.empty());
  EXPECT_EQ(net->counters().value("backpressure_rejects"), 1u);
}

TEST_F(AdmissionPolicyTest, OversizeMessageIsShedEvenIntoAnEmptyQueue) {
  SystemParams params;
  params.num_nodes = 4;
  params.admission.capacity_bytes = 100;
  params.admission.policy = ShedPolicy::kDropOldest;
  TdmNetwork net(sim_, params, TdmNetwork::Options{});
  net.set_shed_handler(
      [this](const Message& msg) { shed_ids_.push_back(msg.id); });
  // 200 bytes can never fit a 100-byte budget: no amount of eviction helps.
  const auto outcome = net.try_submit(0, 1, 200);
  EXPECT_EQ(outcome.status, Network::SubmitStatus::kShed);
  EXPECT_EQ(shed_ids_, std::vector<MessageId>{1});
  EXPECT_EQ(net.counters().value("shed_oversize"), 1u);
}

// The robustness contract end to end: a barrier-phased closed workload with
// queues far too small for its bursts must still complete (shed messages
// settle the barrier accounting), conserving every submission.
class DriverOverloadTest : public ::testing::TestWithParam<ShedPolicy> {};

TEST_P(DriverOverloadTest, BarrieredWorkloadNeverWedges) {
  RunConfig config;
  config.params.num_nodes = 8;
  // Two 2048-byte messages fit; an all-to-all burst of seven does not.
  config.params.admission.capacity_bytes = 4096;
  config.params.admission.policy = GetParam();
  config.kind = SwitchKind::kWormhole;
  const Workload workload = patterns::all_to_all(8, 2048);
  const RunResult result = run_workload(config, workload);
  EXPECT_TRUE(result.completed);
  // Conservation: injected == delivered + shed (no fault layer, no drops).
  EXPECT_EQ(result.counter("submitted"),
            result.metrics.messages + result.counter("shed_messages"));
  if (GetParam() == ShedPolicy::kBackpressure) {
    // Backpressure sheds nothing; it pays in stall time instead.
    EXPECT_EQ(result.counter("shed_messages"), 0u);
    EXPECT_GT(result.counter("backpressure_stall_ns"), 0u);
  } else {
    EXPECT_GT(result.counter("shed_messages"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DriverOverloadTest,
    ::testing::Values(ShedPolicy::kTailDrop, ShedPolicy::kDropNewest,
                      ShedPolicy::kDropOldest, ShedPolicy::kDeadline,
                      ShedPolicy::kBackpressure),
    [](const auto& name_info) {
      std::string name = to_string(name_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// With the fault layer and the slot auditor armed, conservation is audited
// inside the run as well: injected == delivered + dropped + shed + in-flight
// at every audit pass, with shed on the ledger.
TEST(AdmissionAudit, ConservationHoldsWithShedOnTheLedger) {
  RunConfig config;
  config.params.num_nodes = 8;
  config.params.admission.capacity_bytes = 4096;
  config.params.admission.policy = ShedPolicy::kDropOldest;
  config.params.fault.force_enable = true;
  config.params.audit.enabled = true;
  config.params.audit.strict = true;  // a violation aborts the run
  config.kind = SwitchKind::kDynamicTdm;
  const RunResult result =
      run_workload(config, patterns::all_to_all(8, 2048));
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.metrics.audits, 0u);
  EXPECT_EQ(result.metrics.audit_violations, 0u);
  EXPECT_GT(result.counter("shed_messages"), 0u);
}

}  // namespace
}  // namespace pmx
