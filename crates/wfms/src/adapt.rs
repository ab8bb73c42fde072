//! The two adaptation strategies of Fig. 11.
//!
//! To make a WfMS participate in the coordination protocol, either the
//! worklist handlers or the workflow engine are adapted to become interaction
//! clients:
//!
//! * **Adapted worklist handlers** (left side of Fig. 11) mediate between a
//!   *standard* engine and the interaction manager: they only offer and start
//!   activities the manager currently permits.  This is easy to deploy but
//!   induces one manager conversation per worklist handler and is not
//!   "waterproof": a standard worklist handler attached to the same engine
//!   can bypass the manager entirely.
//! * An **adapted workflow engine** (right side) consults the manager itself
//!   before scheduling and starting activities, so every path through the
//!   WfMS is covered and worklist handlers stay untouched, at the price of
//!   modifying the engine.
//!
//! Both adaptations talk to the manager through the [`CoordinationPort`]
//! trait, whose default implementation [`ManagerPort`] wraps an in-process
//! [`ManagerRuntime`] and counts protocol messages, so the message cost of
//! the two architectures can be compared.

use crate::engine::{EngineError, WorkflowEngine, WorklistItem};
use crate::model::{ActivityId, CaseData, WorkflowDefinition};
use ix_core::{Action, Expr};
use ix_manager::{
    ClientId, Completion, ManagerResult, ManagerRuntime, ProtocolVariant, RepartitionReport,
    RuntimeOptions, Session,
};
use std::sync::Arc;

/// The WfMS side of the coordination protocol.
pub trait CoordinationPort {
    /// Asks whether an action is currently permitted (without executing it).
    fn is_permitted(&mut self, action: &Action) -> bool;
    /// Asks for and — on a positive reply — commits the execution of an
    /// action.  Returns false on denial.
    fn execute(&mut self, action: &Action) -> bool;
    /// Number of protocol messages exchanged so far (requests + replies).
    fn messages(&self) -> u64;
}

/// A port that talks to the interaction manager *runtime* through a
/// [`Session`], using the combined coordination protocol.  Several ports
/// (one per worklist handler or engine) can share the same runtime, which is
/// the deployment Fig. 10/11 depicts: one central coordination service, many
/// clients.  The runtime runs one worker per shard behind ordered task
/// queues, so concurrent ports touching different sync-components proceed on
/// different workers without contending on any common lock; each blocking
/// port call is a submission plus a ticket wait (callers that want to
/// pipeline can drive the [`Session`] directly via [`ManagerPort::session`]).
#[derive(Clone, Debug)]
pub struct ManagerPort {
    runtime: Arc<ManagerRuntime>,
    session: Session,
    messages: u64,
}

impl ManagerPort {
    /// Creates a port with its own manager runtime enforcing the given
    /// interaction expression.
    pub fn new(expr: &Expr, client: ClientId) -> ManagerResult<ManagerPort> {
        let runtime = ManagerRuntime::with_options(
            expr,
            RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() },
        )?;
        Ok(ManagerPort::shared(Arc::new(runtime), client))
    }

    /// Creates a port that talks to an existing (shared) manager runtime.
    pub fn shared(runtime: Arc<ManagerRuntime>, client: ClientId) -> ManagerPort {
        let session = runtime.session(client);
        ManagerPort { runtime, session, messages: 0 }
    }

    /// The shared runtime handle (pass it to further ports so that every
    /// client talks to the same central coordination service).
    pub fn handle(&self) -> Arc<ManagerRuntime> {
        self.runtime.clone()
    }

    /// The underlying runtime (statistics, log).
    pub fn runtime(&self) -> &ManagerRuntime {
        &self.runtime
    }

    /// The port's session (submit without blocking, keep tickets in flight).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Grows the running ensemble live: adds an interaction constraint to
    /// the shared manager runtime **without stopping it** — new workflows
    /// joining an ensemble (new examination types, new departments) bring
    /// their integrity constraints along at deployment time, not at
    /// restart.  Disjoint constraints are pure shard-appends; coupling
    /// constraints migrate exactly the affected shards while every other
    /// client keeps working (see [`ManagerRuntime::add_constraint`]).
    pub fn add_constraint(&self, constraint: &Expr) -> ManagerResult<RepartitionReport> {
        self.runtime.add_constraint(constraint)
    }

    /// [`ManagerPort::add_constraint`] for constraints that deliberately
    /// couple with the running ensemble (see [`ManagerRuntime::couple`]).
    pub fn couple(&self, coupling: &Expr) -> ManagerResult<RepartitionReport> {
        self.runtime.couple(coupling)
    }
}

impl CoordinationPort for ManagerPort {
    fn is_permitted(&mut self, action: &Action) -> bool {
        if !self.runtime.controls(action) {
            // Activities the interaction graph does not mention are
            // unconstrained; no conversation with the manager is needed.
            return true;
        }
        self.messages += 2; // ask + reply
        self.session.is_permitted_blocking(action)
    }

    fn execute(&mut self, action: &Action) -> bool {
        if !self.runtime.controls(action) {
            return true;
        }
        self.messages += 2; // combined request + reply
        matches!(self.session.execute(action).wait(), Completion::Executed { .. })
    }

    fn messages(&self) -> u64 {
        self.messages
    }
}

/// A port that never denies anything — the behaviour of an unadapted WfMS.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCoordination;

impl CoordinationPort for NoCoordination {
    fn is_permitted(&mut self, _action: &Action) -> bool {
        true
    }
    fn execute(&mut self, _action: &Action) -> bool {
        true
    }
    fn messages(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Strategy 1: adapted worklist handlers, standard engine.
// ---------------------------------------------------------------------------

/// A worklist handler that has been adapted to participate in the
/// coordination protocol (Fig. 11, left).
#[derive(Debug)]
pub struct AdaptedWorklistHandler<P: CoordinationPort> {
    /// The role whose worklist this handler displays.
    pub role: String,
    port: P,
}

impl<P: CoordinationPort> AdaptedWorklistHandler<P> {
    /// Creates a handler for a role.
    pub fn new(role: &str, port: P) -> AdaptedWorklistHandler<P> {
        AdaptedWorklistHandler { role: role.to_string(), port }
    }

    /// The items of this role's worklist, with the `enabled` flag reflecting
    /// the manager's current answers (step 3 of the subscription protocol:
    /// "keep users' worklists up to date").
    pub fn visible_items(&mut self, engine: &WorkflowEngine) -> Vec<WorklistItem> {
        engine
            .worklist(&self.role)
            .iter()
            .cloned()
            .map(|mut item| {
                let action = engine
                    .start_action(item.instance, item.activity)
                    .expect("item refers to a live instance");
                item.enabled = self.port.is_permitted(&action);
                item
            })
            .collect()
    }

    /// Starts an activity on behalf of a user: first asks the manager, then
    /// drives the standard engine.
    pub fn start(
        &mut self,
        engine: &mut WorkflowEngine,
        instance: u64,
        activity: ActivityId,
    ) -> Result<(), EngineError> {
        let action = engine
            .start_action(instance, activity)
            .ok_or(EngineError::UnknownInstance(instance))?;
        if !self.port.execute(&action) {
            return Err(EngineError::Denied { activity: action.to_string() });
        }
        engine.start_activity(instance, activity)
    }

    /// Completes an activity and confirms the termination action.
    pub fn complete(
        &mut self,
        engine: &mut WorkflowEngine,
        instance: u64,
        activity: ActivityId,
    ) -> Result<(), EngineError> {
        let action =
            engine.end_action(instance, activity).ok_or(EngineError::UnknownInstance(instance))?;
        engine.complete_activity(instance, activity)?;
        // The termination is reported unconditionally; the interaction
        // expressions of the paper always permit the end of a started
        // activity.
        let _ = self.port.execute(&action);
        Ok(())
    }

    /// Protocol messages this handler has exchanged with the manager.
    pub fn messages(&self) -> u64 {
        self.port.messages()
    }
}

// ---------------------------------------------------------------------------
// Strategy 2: adapted engine, standard worklist handlers.
// ---------------------------------------------------------------------------

/// A workflow engine that has been adapted to participate in the
/// coordination protocol itself (Fig. 11, right).
#[derive(Debug)]
pub struct AdaptedEngine<P: CoordinationPort> {
    engine: WorkflowEngine,
    port: P,
}

impl<P: CoordinationPort> AdaptedEngine<P> {
    /// Creates an adapted engine.
    pub fn new(port: P) -> AdaptedEngine<P> {
        AdaptedEngine { engine: WorkflowEngine::new(), port }
    }

    /// The wrapped standard engine (read access for worklist handlers — they
    /// remain completely unchanged).
    pub fn engine(&self) -> &WorkflowEngine {
        &self.engine
    }

    /// Starts a new workflow instance.
    pub fn start_instance(&mut self, definition: &WorkflowDefinition, case: CaseData) -> u64 {
        let id = self.engine.start_instance(definition, case);
        self.refresh_worklists();
        id
    }

    /// The worklist of a role, as any standard worklist handler would see it;
    /// the engine already folded the manager's answers into the `enabled`
    /// flags.
    pub fn worklist(&self, role: &str) -> Vec<WorklistItem> {
        self.engine.worklist(role).to_vec()
    }

    /// Starts an activity.  The engine itself asks the manager first, so no
    /// path around the coordination protocol exists.
    pub fn start_activity(
        &mut self,
        instance: u64,
        activity: ActivityId,
    ) -> Result<(), EngineError> {
        let action = self
            .engine
            .start_action(instance, activity)
            .ok_or(EngineError::UnknownInstance(instance))?;
        if !self.port.execute(&action) {
            return Err(EngineError::Denied { activity: action.to_string() });
        }
        let result = self.engine.start_activity(instance, activity);
        self.refresh_worklists();
        result
    }

    /// Completes an activity.
    pub fn complete_activity(
        &mut self,
        instance: u64,
        activity: ActivityId,
    ) -> Result<(), EngineError> {
        let action = self
            .engine
            .end_action(instance, activity)
            .ok_or(EngineError::UnknownInstance(instance))?;
        self.engine.complete_activity(instance, activity)?;
        let _ = self.port.execute(&action);
        self.refresh_worklists();
        Ok(())
    }

    /// Protocol messages exchanged by the engine.
    pub fn messages(&self) -> u64 {
        self.port.messages()
    }

    /// True if every instance has finished.
    pub fn all_finished(&self) -> bool {
        self.engine.all_finished()
    }

    /// Re-evaluates the permissibility of every offered activity and updates
    /// the `enabled` flags of the worklist items (the engine-side analogue of
    /// the subscription protocol's worklist updates).
    fn refresh_worklists(&mut self) {
        let items = self.engine.all_worklist_items();
        for item in items {
            if let Some(action) = self.engine.start_action(item.instance, item.activity) {
                let enabled = self.port.is_permitted(&action);
                self.engine.set_item_enabled(item.instance, item.activity, enabled);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ActivityDef, Flow};
    use ix_core::parse;

    fn examination_workflow() -> WorkflowDefinition {
        WorkflowDefinition::new(
            "examination",
            vec![
                ActivityDef { name: "call_patient".into(), role: "assistant".into() },
                ActivityDef { name: "perform_examination".into(), role: "physician".into() },
            ],
            Flow::Sequence(vec![Flow::Activity(0), Flow::Activity(1)]),
        )
    }

    fn patient_constraint() -> Expr {
        // A patient may pass through only one examination at a time
        // (activities mapped to start/end actions).
        parse(
            "all p { (some x { call_patient_start(p, x) - call_patient_end(p, x) - \
             perform_examination_start(p, x) - perform_examination_end(p, x) })* }",
        )
        .unwrap()
    }

    fn case(patient: i64, exam: &str) -> CaseData {
        CaseData { patient, examination: exam.into() }
    }

    #[test]
    fn adapted_worklist_handler_filters_and_enforces() {
        let mut engine = WorkflowEngine::new();
        let sono = engine.start_instance(&examination_workflow(), case(1, "sono"));
        let endo = engine.start_instance(&examination_workflow(), case(1, "endo"));
        let port = ManagerPort::new(&patient_constraint(), 1).unwrap();
        let mut handler = AdaptedWorklistHandler::new("assistant", port);

        // Both calls are offered and initially enabled.
        let items = handler.visible_items(&engine);
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.enabled));

        // Starting the ultrasonography call disables the endoscopy call.
        handler.start(&mut engine, sono, 0).unwrap();
        let items = handler.visible_items(&engine);
        assert_eq!(items.len(), 1, "the started item left the worklist");
        assert!(!items[0].enabled, "the other call is temporarily not executable");

        // Trying to start it anyway is vetoed by the manager.
        assert!(matches!(handler.start(&mut engine, endo, 0), Err(EngineError::Denied { .. })));
        assert!(handler.messages() > 0);
    }

    #[test]
    fn standard_worklist_handler_bypasses_the_manager() {
        // The "not waterproof" problem: the standard engine API does not ask
        // anybody, so a standard worklist handler can start the second call
        // even though the constraint forbids it.
        let mut engine = WorkflowEngine::new();
        let sono = engine.start_instance(&examination_workflow(), case(1, "sono"));
        let endo = engine.start_instance(&examination_workflow(), case(1, "endo"));
        let port = ManagerPort::new(&patient_constraint(), 1).unwrap();
        let mut adapted = AdaptedWorklistHandler::new("assistant", port);
        adapted.start(&mut engine, sono, 0).unwrap();
        // A different, unadapted handler goes straight to the engine.
        assert!(engine.start_activity(endo, 0).is_ok(), "violation is not prevented");
    }

    #[test]
    fn adapted_engine_is_waterproof() {
        let port = ManagerPort::new(&patient_constraint(), 2).unwrap();
        let mut engine = AdaptedEngine::new(port);
        let sono = engine.start_instance(&examination_workflow(), case(1, "sono"));
        let endo = engine.start_instance(&examination_workflow(), case(1, "endo"));
        engine.start_activity(sono, 0).unwrap();
        // Every path goes through the adapted engine, so the veto holds for
        // all worklist handlers.
        assert!(matches!(engine.start_activity(endo, 0), Err(EngineError::Denied { .. })));
        // The worklist item of the blocked call is marked not executable.
        let items = engine.worklist("assistant");
        let blocked = items.iter().find(|i| i.instance == endo).unwrap();
        assert!(!blocked.enabled);
        // After the first examination completes, the other call is possible.
        engine.complete_activity(sono, 0).unwrap();
        engine.start_activity(sono, 1).unwrap();
        engine.complete_activity(sono, 1).unwrap();
        engine.start_activity(endo, 0).unwrap();
        engine.complete_activity(endo, 0).unwrap();
        engine.start_activity(endo, 1).unwrap();
        engine.complete_activity(endo, 1).unwrap();
        assert!(engine.all_finished());
    }

    #[test]
    fn ensembles_grow_live_through_the_port() {
        // Start with only the patient constraint; the adapted engine is in
        // the middle of a case when the department adds a capacity rule for
        // a *new* examination type (disjoint: pure append) and then couples
        // a one-exam-at-a-time rule onto the running actions.
        let port = ManagerPort::new(&patient_constraint(), 3).unwrap();
        let handle = port.handle();
        let mut engine = AdaptedEngine::new(port);
        let sono = engine.start_instance(&examination_workflow(), case(1, "sono"));
        engine.start_activity(sono, 0).unwrap();

        // Disjoint addition: constraints over a fresh `mrt` examination.
        let mrt =
            parse("mult 1 { some p { some x { mrt_start(p, x) - mrt_end(p, x) } } }").unwrap();
        let report = handle.add_constraint(&mrt).unwrap();
        assert!(report.migrated_shards.is_empty(), "disjoint rule appends");
        assert!(handle.controls(&Action::concrete(
            "mrt_start",
            [ix_core::Value::int(1), ix_core::Value::sym("x")],
        )));

        // Coupling addition: at most one call_patient_start per round of a
        // global review step — shares the running start action.  The
        // committed history (one start) must replay into it.
        let coupling =
            parse("((some p { some x { call_patient_start(p, x) } })* - review)*").unwrap();
        let report = handle.couple(&coupling).unwrap();
        assert!(!report.migrated_shards.is_empty(), "coupling quiesces the owner");
        assert_eq!(report.replayed_actions, 1, "the committed start replays");

        // The engine keeps driving the same case to completion afterwards.
        engine.complete_activity(sono, 0).unwrap();
        engine.start_activity(sono, 1).unwrap();
        engine.complete_activity(sono, 1).unwrap();
        assert!(engine.all_finished());
        // And the new coupled action is live.
        let mut port = ManagerPort::shared(handle, 9);
        assert!(port.execute(&Action::nullary("review")));
    }

    #[test]
    fn no_coordination_port_allows_everything_for_free() {
        let mut port = NoCoordination;
        assert!(port.execute(&Action::nullary("anything")));
        assert!(port.is_permitted(&Action::nullary("anything")));
        assert_eq!(port.messages(), 0);
    }

    #[test]
    fn engine_adaptation_needs_fewer_messages_than_many_adapted_worklists() {
        // With k adapted worklist handlers each handler re-asks the manager
        // for its own items; the adapted engine asks once per scheduling
        // decision.  Run the same two-instance scenario both ways and compare.
        let def = examination_workflow();
        // Strategy 1: two adapted worklist handlers (assistant + physician).
        let mut engine = WorkflowEngine::new();
        let i1 = engine.start_instance(&def, case(1, "sono"));
        let i2 = engine.start_instance(&def, case(2, "endo"));
        // Both worklist handlers talk to the same central interaction
        // manager.
        let assistant_port = ManagerPort::new(&patient_constraint(), 1).unwrap();
        let physician_port = ManagerPort::shared(assistant_port.handle(), 2);
        let mut assistant = AdaptedWorklistHandler::new("assistant", assistant_port);
        let mut physician = AdaptedWorklistHandler::new("physician", physician_port);
        for inst in [i1, i2] {
            assistant.visible_items(&engine);
            assistant.start(&mut engine, inst, 0).unwrap();
            assistant.complete(&mut engine, inst, 0).unwrap();
            physician.visible_items(&engine);
            physician.start(&mut engine, inst, 1).unwrap();
            physician.complete(&mut engine, inst, 1).unwrap();
        }
        let worklist_messages = assistant.messages() + physician.messages();

        // Strategy 2: one adapted engine, standard handlers.
        let mut adapted = AdaptedEngine::new(ManagerPort::new(&patient_constraint(), 2).unwrap());
        let j1 = adapted.start_instance(&def, case(1, "sono"));
        let j2 = adapted.start_instance(&def, case(2, "endo"));
        for inst in [j1, j2] {
            adapted.start_activity(inst, 0).unwrap();
            adapted.complete_activity(inst, 0).unwrap();
            adapted.start_activity(inst, 1).unwrap();
            adapted.complete_activity(inst, 1).unwrap();
        }
        let engine_messages = adapted.messages();
        assert!(worklist_messages > 0 && engine_messages > 0);
        // Both strategies enforce the constraint; the interesting comparison
        // (message counts per architecture) is reported by the
        // `adaptation_overhead` benchmark rather than asserted here, because
        // the ratio depends on the number of handlers and worklist refreshes.
        assert!(adapted.all_finished());
    }
}
