//! Text rendering of a plan's instruction streams (`dpipe plan
//! --instructions`).
//!
//! The streams are the exact lowering [`lower_plan`] that
//! [`simulate_plan`](crate::simulate_plan) replays, so what is printed is
//! what the simulator executes.

use crate::plan::Plan;
use crate::simulate::lower_plan;

/// Instructions printed per slot before the rest is summarised.
const SHOWN_PER_SLOT: usize = 12;

/// Renders the plan's per-slot instruction streams: a header per device
/// slot with its instruction count, then its first
/// [`SHOWN_PER_SLOT`] instructions and a count of the rest.
pub fn render_instructions(plan: &Plan) -> String {
    let mut out = String::new();
    for (slot, prog) in lower_plan(plan).iter().enumerate() {
        out.push_str(&format!(
            "\ndevice slot {slot} ({} instructions):\n",
            prog.len()
        ));
        for instr in prog.iter().take(SHOWN_PER_SLOT) {
            out.push_str(&format!("  {instr:?}\n"));
        }
        if prog.len() > SHOWN_PER_SLOT {
            out.push_str(&format!("  ... {} more\n", prog.len() - SHOWN_PER_SLOT));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BackbonePartition;
    use crate::planner::Planner;
    use dpipe_cluster::ClusterSpec;
    use dpipe_sim::{Instruction, InstructionSim};
    use dpipe_spec::PlanSpec;

    fn plan_for(model: &str, batch: u32) -> Plan {
        Planner::plan_spec(&PlanSpec::zoo(model, ClusterSpec::single_node(8), batch)).unwrap()
    }

    /// Replays the lowered streams fault-free and checks that every
    /// instruction ran and that they end exactly where the analytic
    /// schedule's last op or fill item ends.
    fn assert_replay_is_exact(plan: &Plan, streams: &[Vec<Instruction>]) {
        assert_eq!(streams.len(), plan.schedule.num_slots);
        let (traces, makespan) = InstructionSim::run(streams).unwrap();
        assert_eq!(traces.len(), streams.iter().map(Vec::len).sum::<usize>());
        let fill_end = plan
            .fill
            .bubbles
            .iter()
            .map(|bf| {
                let start = plan.bubbles[bf.bubble_index].start;
                start + bf.items.iter().map(|i| i.duration).sum::<f64>()
            })
            .fold(0.0, f64::max);
        let analytic = plan.schedule.compute_end().max(fill_end);
        assert!(
            (makespan - analytic).abs() < 1e-6,
            "replayed makespan {makespan} vs analytic {analytic}"
        );
    }

    #[test]
    fn streams_execute_without_deadlock() {
        let plan = plan_for("sd", 256);
        let streams = lower_plan(&plan);
        assert!(streams.iter().all(|s| !s.is_empty()));
        assert_replay_is_exact(&plan, &streams);
        let text = render_instructions(&plan);
        for slot in 0..streams.len() {
            assert!(text.contains(&format!("\ndevice slot {slot} (")));
        }
    }

    #[test]
    fn makespan_matches_analytic_iteration() {
        let plan = plan_for("controlnet", 384);
        assert_replay_is_exact(&plan, &lower_plan(&plan));
    }

    #[test]
    fn sends_and_recvs_are_balanced() {
        let plan = plan_for("sd", 128);
        let streams = lower_plan(&plan);
        let count = |pred: &dyn Fn(&Instruction) -> bool| -> usize {
            streams.iter().flatten().filter(|i| pred(i)).count()
        };
        let sends = count(&|i| matches!(i, Instruction::Send { .. }));
        let recvs = count(&|i| matches!(i, Instruction::Recv { .. }));
        assert!(sends > 0);
        assert_eq!(sends, recvs);
        assert_replay_is_exact(&plan, &streams);
    }

    #[test]
    fn bidirectional_plans_lower_too() {
        let plan = plan_for("cdm-lsun", 256);
        assert!(matches!(
            plan.partition,
            BackbonePartition::Bidirectional(_)
        ));
        assert_replay_is_exact(&plan, &lower_plan(&plan));
    }

    #[test]
    fn fill_work_appears_in_streams() {
        let plan = plan_for("controlnet", 384);
        assert!(plan.fill.filled_time() > 0.0, "plan should fill bubbles");
        let streams = lower_plan(&plan);
        let fill_items = streams
            .iter()
            .flatten()
            .filter(
                |i| matches!(i, Instruction::Compute { label, .. } if label.starts_with("fill c")),
            )
            .count();
        // One item per bubble slot it fills.
        let expected: usize = plan
            .fill
            .bubbles
            .iter()
            .map(|b| {
                let filled = b.items.iter().filter(|i| i.duration > 0.0).count();
                filled * plan.bubbles[b.bubble_index].slots.len()
            })
            .sum();
        assert!(expected > 0);
        assert_eq!(fill_items, expected);
    }
}
