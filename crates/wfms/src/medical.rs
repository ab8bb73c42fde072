//! The medical examination workflows of Fig. 1 and the ensemble simulation.
//!
//! Two workflow definitions — ultrasonography and endoscopy — are modelled
//! with the activities and control flow shown in Fig. 1 (the endoscopy
//! additionally informs the patient in parallel with the preparation and
//! writes a short report before the detailed one).  The
//! [`EnsembleSimulation`] starts a configurable, dynamically growing set of
//! instances for a population of patients, drives them with scripted users,
//! and enforces the coupled constraints of Fig. 7 through an adapted engine —
//! the end-to-end scenario the paper's introduction motivates.

use crate::adapt::{AdaptedEngine, ManagerPort};
use crate::engine::EngineError;
use crate::model::{ActivityDef, CaseData, Flow, WorkflowDefinition};
use ix_core::Expr;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The ultrasonography workflow of Fig. 1 (left).
pub fn ultrasonography() -> WorkflowDefinition {
    let a = |name: &str, role: &str| ActivityDef { name: name.into(), role: role.into() };
    WorkflowDefinition::new(
        "ultrasonography",
        vec![
            a("order_examination", "physician"),
            a("schedule_examination", "clerk"),
            a("prepare_patient", "nurse"),
            a("call_patient", "sono_assistant"),
            a("perform_examination", "sono_physician"),
            a("write_report", "sono_physician"),
            a("read_report", "physician"),
        ],
        Flow::Sequence(vec![
            Flow::Activity(0),
            Flow::Activity(1),
            Flow::Activity(2),
            Flow::Activity(3),
            Flow::Activity(4),
            Flow::Activity(5),
            Flow::Activity(6),
        ]),
    )
}

/// The endoscopy workflow of Fig. 1 (right).
pub fn endoscopy() -> WorkflowDefinition {
    let a = |name: &str, role: &str| ActivityDef { name: name.into(), role: role.into() };
    WorkflowDefinition::new(
        "endoscopy",
        vec![
            a("order_examination", "physician"),
            a("schedule_examination", "clerk"),
            a("inform_patient", "nurse"),
            a("prepare_patient", "nurse"),
            a("call_patient", "endo_assistant"),
            a("perform_examination", "endo_physician"),
            a("write_short_report", "endo_physician"),
            a("read_short_report", "physician"),
            a("write_detailed_report", "endo_physician"),
        ],
        Flow::Sequence(vec![
            Flow::Activity(0),
            Flow::Activity(1),
            Flow::Parallel(vec![Flow::Activity(2), Flow::Activity(3)]),
            Flow::Activity(4),
            Flow::Activity(5),
            Flow::Activity(6),
            Flow::Parallel(vec![Flow::Activity(7), Flow::Activity(8)]),
        ]),
    )
}

/// The inter-workflow constraint the ensemble runs under: the coupling of the
/// patient integrity constraint (Fig. 3) and the department capacity
/// restriction (Fig. 6), i.e. Fig. 7.
pub fn ensemble_constraint() -> Expr {
    ix_graph::figures::fig7_expr()
}

/// A "mostly disjoint" ensemble of `departments` independent examination
/// constraints coupled through one global `audit` action: every department
/// enforces "each case is called before it is performed" over its own action
/// names, and a hospital-wide audit may only run when *every* department is
/// at a round boundary (no case mid-flight anywhere).
///
/// The partition keeps one shard per department — `audit` is a multi-owner
/// action executed by two-phase commit across all of them — rather than
/// collapsing the whole ensemble into a single critical region because of
/// that one shared action.
pub fn coupled_ensemble_constraint(departments: usize) -> Expr {
    assert!(departments >= 1);
    let group =
        |k: usize| format!("((some p {{ call_dept{k}(p) - perform_dept{k}(p) }})* - audit)*");
    let src = (0..departments).map(group).collect::<Vec<_>>().join(" @ ");
    ix_core::parse(&src).expect("generated coupled-ensemble constraint")
}

/// The call action of case `p` in department `k` of the coupled ensemble.
pub fn coupled_call(k: usize, p: i64) -> ix_core::Action {
    ix_core::Action::concrete(&format!("call_dept{k}"), [ix_core::Value::int(p)])
}

/// The perform action of case `p` in department `k` of the coupled ensemble.
pub fn coupled_perform(k: usize, p: i64) -> ix_core::Action {
    ix_core::Action::concrete(&format!("perform_dept{k}"), [ix_core::Value::int(p)])
}

/// The global audit action coupled across every department of the ensemble.
pub fn coupled_audit() -> ix_core::Action {
    ix_core::Action::nullary("audit")
}

/// Configuration of the ensemble simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Number of patients; each patient gets one ultrasonography and one
    /// endoscopy instance.
    pub patients: usize,
    /// RNG seed for the scripted users.
    pub seed: u64,
    /// Safety bound on scheduler steps.
    pub max_steps: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig { patients: 3, seed: 7, max_steps: 10_000 }
    }
}

/// Outcome statistics of an ensemble run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimulationReport {
    /// Number of workflow instances started.
    pub instances: usize,
    /// Number of instances that ran to completion.
    pub completed: usize,
    /// Number of activity starts that the interaction manager denied (the
    /// user then picked another item and retried later).
    pub denials: u64,
    /// Number of activity starts that were granted.
    pub starts: u64,
    /// Protocol messages exchanged with the interaction manager.
    pub manager_messages: u64,
    /// Scheduler steps used.
    pub steps: usize,
}

/// The end-to-end simulation: a dynamically growing ensemble of examination
/// workflows coordinated by an interaction manager through an adapted engine.
pub struct EnsembleSimulation {
    engine: AdaptedEngine<ManagerPort>,
    rng: StdRng,
    config: SimulationConfig,
    report: SimulationReport,
}

impl EnsembleSimulation {
    /// Creates a simulation with the Fig. 7 constraint.
    pub fn new(config: SimulationConfig) -> EnsembleSimulation {
        let port = ManagerPort::new(&ensemble_constraint(), 1).expect("paper constraint");
        EnsembleSimulation {
            engine: AdaptedEngine::new(port),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            report: SimulationReport::default(),
        }
    }

    /// Starts both examination workflows for every patient.  Instances are
    /// added over time in a real deployment; starting them staggered via the
    /// scheduler gives the same dynamics.
    pub fn start_ensemble(&mut self) {
        for patient in 1..=self.config.patients as i64 {
            self.engine.start_instance(
                &ultrasonography(),
                CaseData { patient, examination: "sono".into() },
            );
            self.engine
                .start_instance(&endoscopy(), CaseData { patient, examination: "endo".into() });
            self.report.instances += 2;
        }
    }

    /// Runs scripted users until every instance finished (or the step budget
    /// is exhausted) and returns the report.
    pub fn run(mut self) -> SimulationReport {
        self.start_ensemble();
        let mut running: Vec<(u64, usize)> = Vec::new();
        for step in 0..self.config.max_steps {
            if self.engine.all_finished() && running.is_empty() {
                self.report.steps = step;
                break;
            }
            // Users alternate between completing something they started and
            // picking a new enabled worklist item.
            let complete_first = self.rng.gen_bool(0.5);
            if complete_first && !running.is_empty() {
                let idx = self.rng.gen_range(0..running.len());
                let (instance, activity) = running.swap_remove(idx);
                self.engine
                    .complete_activity(instance, activity)
                    .expect("running activities can always complete");
                continue;
            }
            let mut items = self.engine.engine().all_worklist_items();
            items.shuffle(&mut self.rng);
            if let Some(item) = items.first() {
                match self.engine.start_activity(item.instance, item.activity) {
                    Ok(()) => {
                        self.report.starts += 1;
                        running.push((item.instance, item.activity));
                    }
                    Err(EngineError::Denied { .. }) => {
                        self.report.denials += 1;
                    }
                    Err(other) => panic!("unexpected engine error: {other}"),
                }
            } else if !running.is_empty() {
                let idx = self.rng.gen_range(0..running.len());
                let (instance, activity) = running.swap_remove(idx);
                self.engine
                    .complete_activity(instance, activity)
                    .expect("running activities can always complete");
            }
            self.report.steps = step + 1;
        }
        self.report.completed =
            self.engine.engine().instances().filter(|i| i.is_finished()).count();
        self.report.manager_messages = self.engine.messages();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_definitions_have_the_paper_activities() {
        let sono = ultrasonography();
        let endo = endoscopy();
        assert_eq!(sono.len(), 7);
        assert_eq!(endo.len(), 9);
        assert!(sono.activity_id("call_patient").is_some());
        assert!(endo.activity_id("inform_patient").is_some());
        assert!(endo.activity_id("write_detailed_report").is_some());
        assert!(sono.activity_id("inform_patient").is_none());
    }

    #[test]
    fn ensemble_with_one_patient_completes_without_denials_only_if_serialized() {
        let report =
            EnsembleSimulation::new(SimulationConfig { patients: 1, seed: 3, max_steps: 5_000 })
                .run();
        assert_eq!(report.instances, 2);
        assert_eq!(report.completed, 2, "both examinations finish: {report:?}");
        assert!(report.starts >= 16, "every activity of both workflows started");
        assert!(report.manager_messages > 0);
    }

    #[test]
    fn coupled_ensemble_shards_per_department_with_a_shared_audit() {
        use ix_manager::{InteractionManager, ProtocolVariant};
        let expr = coupled_ensemble_constraint(4);
        let m = InteractionManager::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
        assert_eq!(m.shard_count(), 4, "one shared audit must not collapse the ensemble");
        assert_eq!(m.owners_of(&coupled_audit()), vec![0, 1, 2, 3]);
        // A round of cases in every department, then the hospital-wide audit.
        for k in 0..4 {
            assert!(m.try_execute(k as u64, &coupled_call(k, 1)).unwrap().is_some());
            assert!(m.try_execute(k as u64, &coupled_perform(k, 1)).unwrap().is_some());
        }
        assert!(m.try_execute(9, &coupled_audit()).unwrap().is_some());
        // Mid-case anywhere vetoes the next audit.
        assert!(m.try_execute(0, &coupled_call(0, 2)).unwrap().is_some());
        assert!(m.try_execute(9, &coupled_audit()).unwrap().is_none());
        assert!(m.try_execute(0, &coupled_perform(0, 2)).unwrap().is_some());
        assert!(m.try_execute(9, &coupled_audit()).unwrap().is_some());
        assert!(m.is_final());
    }

    #[test]
    fn ensemble_with_several_patients_completes_and_exercises_denials() {
        let report =
            EnsembleSimulation::new(SimulationConfig { patients: 4, seed: 11, max_steps: 20_000 })
                .run();
        assert_eq!(report.instances, 8);
        assert_eq!(report.completed, 8, "all workflows finish: {report:?}");
        assert!(
            report.denials > 0,
            "with four patients competing for departments some starts are vetoed: {report:?}"
        );
    }
}
