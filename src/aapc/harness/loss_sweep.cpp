#include "aapc/harness/loss_sweep.hpp"

#include <cmath>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"

namespace aapc::harness {

namespace {

std::string format_rate(double rate) {
  if (rate == 0) return "0";
  std::ostringstream os;
  os << rate;
  return os.str();
}

std::string format_ms(SimTime seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << seconds * 1e3;
  return os.str();
}

std::string format_x(double factor) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << factor;
  return os.str();
}

}  // namespace

bool LossSweepReport::all_ok() const {
  for (const LossSweepCell& cell : cells) {
    if (!cell.integrity_ok) return false;
  }
  return !cells.empty();
}

TextTable LossSweepReport::table() const {
  TextTable table;
  table.set_header({"transport", "loss rate", "completion (ms)", "inflation",
                    "sent", "lost", "dropped", "retx", "integrity"});
  for (const LossSweepCell& cell : cells) {
    table.add_row({packetsim::transport_name(cell.transport),
                   format_rate(cell.loss_rate), format_ms(cell.completion),
                   format_x(cell.inflation), str_cat(cell.segments_sent),
                   str_cat(cell.segments_lost), str_cat(cell.segments_dropped),
                   str_cat(cell.retransmissions),
                   cell.integrity_ok ? "ok" : "VIOLATION"});
  }
  return table;
}

std::string LossSweepReport::to_string() const {
  std::ostringstream os;
  os << title << " — scheduled alltoall over the packet backend, msize="
     << msize << " B, " << messages_per_run << " transfers per run\n"
     << table().render();
  for (const LossSweepCell& cell : cells) {
    if (!cell.integrity_ok) {
      os << "\n" << packetsim::transport_name(cell.transport) << " @ "
         << format_rate(cell.loss_rate) << ": " << cell.integrity_summary;
    }
  }
  return os.str();
}

LossSweepReport run_loss_sweep(const topology::Topology& topo,
                               const std::string& title,
                               const LossSweepConfig& config) {
  AAPC_REQUIRE(!config.loss_rates.empty(), "empty loss-rate sweep");
  AAPC_REQUIRE(!config.transports.empty(), "empty transport sweep");

  LossSweepReport report;
  report.title = title;
  report.msize = config.msize;

  // Schedule and lower once: every cell executes the identical program
  // set, so differences are purely transport + loss.
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, config.msize, config.lowering);

  for (const packetsim::PacketNetworkParams::Transport transport :
       config.transports) {
    SimTime baseline = 0;
    for (const double rate : config.loss_rates) {
      mpisim::ExecutorParams exec = config.exec;
      exec.packet = config.packet;
      exec.packet->transport = transport;
      exec.packet->faults.loss_rate = rate;

      LossSweepCell cell;
      cell.transport = transport;
      cell.loss_rate = rate;
      try {
        const mpisim::ExecutionResult result =
            mpisim::Executor(topo, config.net, exec).run(programs);
        cell.completion = result.completion_time;
        cell.segments_sent = result.packet->segments_sent;
        cell.segments_lost = result.packet->segments_lost;
        cell.segments_dropped = result.packet->segments_dropped;
        cell.retransmissions = result.packet->retransmissions;
        cell.integrity_ok = result.integrity.ok();
        cell.integrity_summary = result.integrity.summary();
        report.messages_per_run = result.message_count;
      } catch (const Error& error) {
        // Executor-level integrity/livelock failures become a sweep
        // verdict instead of aborting the whole experiment.
        cell.integrity_ok = false;
        cell.integrity_summary = error.what();
      }
      if (rate == 0 && cell.completion > 0) baseline = cell.completion;
      cell.inflation = (baseline > 0 && cell.completion > 0)
                           ? cell.completion / baseline
                           : 1.0;
      report.cells.push_back(cell);
    }
  }
  return report;
}

}  // namespace aapc::harness
