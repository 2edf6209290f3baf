//! Physical left-deep join plans.
//!
//! PARJ "operates on left-deep query join trees" (§3): a plan is a
//! sequence of steps, each naming a predicate partition, which replica
//! of it to use (S-O or O-S), and how the replica's key and value
//! columns relate to query variables or constants. Step 0 is the
//! **driver** — it is scanned (and sharded for parallelism); every later
//! step is **probed** once per intermediate tuple with the adaptive
//! search.
//!
//! Plans are produced by `parj-optimizer` (or by hand in tests) and
//! validated + compiled here: compilation precomputes, per step, whether
//! the value column binds a fresh variable or merely checks an existing
//! binding, so the executor's inner loop does no case analysis on
//! variable state.

use parj_dict::Id;
use parj_store::SortOrder;

/// Index of a query variable (dense, assigned by the query translator).
pub type VarId = u16;

/// A plan atom: either a query variable or a dictionary constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atom {
    /// A query variable slot.
    Var(VarId),
    /// A resource id constant.
    Const(Id),
}

/// One step of a left-deep plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Predicate partition to access.
    pub predicate: Id,
    /// Which replica: `SO` keys the step on subjects, `OS` on objects.
    pub order: SortOrder,
    /// Key-column atom. In every step after the first it must be a
    /// constant or a variable bound by an earlier step (it is what the
    /// replica's keys array is probed with).
    pub key: Atom,
    /// Value-column atom.
    pub value: Atom,
}

impl PlanStep {
    /// The `(subject, object)` atoms of this step in triple order,
    /// un-flipping the replica orientation.
    pub fn subject_object(&self) -> (Atom, Atom) {
        match self.order {
            SortOrder::SO => (self.key, self.value),
            SortOrder::OS => (self.value, self.key),
        }
    }
}

/// How the executor treats a step's value column (precompiled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueMode {
    /// Fresh variable: iterate the whole value group, binding it.
    Bind(VarId),
    /// Already-bound variable: membership-check its binding in the group.
    CheckVar(VarId),
    /// Constant: membership-check it.
    CheckConst(Id),
    /// Same variable as the key (`?x p ?x`): membership-check the key id.
    CheckEqKey,
}

/// How the executor resolves a step's key column (precompiled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyMode {
    /// Bound variable: read from the bindings array.
    Var(VarId),
    /// Constant.
    Const(Id),
}

/// Precompiled per-step execution modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompiledStep {
    pub key: KeyMode,
    pub value: ValueMode,
}

/// How the executor drives (scans) step 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriverMode {
    /// Key is a variable: scan the keys array, sharding over key
    /// positions (Example 3.1).
    ScanKeys { bind_key: VarId, value: DriverValue },
    /// Key is a constant, value a variable: locate the key's group once
    /// and shard over the **value vector** (Example 3.2: "we start
    /// scanning concurrently different shards of the vector that
    /// corresponds to object = 10").
    ScanGroup { key: Id, bind_value: VarId },
    /// Fully constant pattern: a single existence check.
    Existence { key: Id, value: Id },
}

/// Value handling while scanning keys in the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriverValue {
    Bind(VarId),
    CheckConst(Id),
    CheckEqKey,
}

/// Why a plan failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Plans must contain at least one step.
    Empty,
    /// A variable id ≥ `num_vars` appeared.
    VarOutOfRange(VarId),
    /// A probe step's key variable is not bound by any earlier step; a
    /// left-deep pipeline cannot evaluate it.
    UnboundKey {
        /// Index of the offending step.
        step: usize,
        /// The unbound key variable.
        var: VarId,
    },
    /// A projection variable is never bound by any step.
    UnboundProjection(VarId),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "plan has no steps"),
            PlanError::VarOutOfRange(v) => write!(f, "variable ?{v} out of range"),
            PlanError::UnboundKey { step, var } => {
                write!(f, "step {step} probes unbound variable ?{var}")
            }
            PlanError::UnboundProjection(v) => {
                write!(f, "projection variable ?{v} is never bound")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated, compiled left-deep plan. Read-only once built:
/// [`PhysicalPlan::new`] is the one validation, and the executor relies
/// on what it checked (binding slots, one compiled step per probe).
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The declarative steps (kept for display/explain).
    pub(crate) steps: Vec<PlanStep>,
    /// Total number of variable slots.
    pub(crate) num_vars: usize,
    /// Variables returned per result row, in output order.
    pub(crate) projection: Vec<VarId>,
    pub(crate) driver: DriverMode,
    pub(crate) compiled: Vec<CompiledStep>,
}

impl PhysicalPlan {
    /// Validates and compiles a plan.
    pub fn new(
        steps: Vec<PlanStep>,
        num_vars: usize,
        projection: Vec<VarId>,
    ) -> Result<Self, PlanError> {
        if steps.is_empty() {
            return Err(PlanError::Empty);
        }
        let check_var = |a: Atom| -> Result<(), PlanError> {
            if let Atom::Var(v) = a {
                if v as usize >= num_vars {
                    return Err(PlanError::VarOutOfRange(v));
                }
            }
            Ok(())
        };
        for s in &steps {
            check_var(s.key)?;
            check_var(s.value)?;
        }

        let mut bound = vec![false; num_vars];
        // Driver.
        let d0 = &steps[0];
        let driver = match (d0.key, d0.value) {
            (Atom::Var(k), Atom::Var(v)) if k == v => {
                bound[k as usize] = true;
                DriverMode::ScanKeys {
                    bind_key: k,
                    value: DriverValue::CheckEqKey,
                }
            }
            (Atom::Var(k), Atom::Var(v)) => {
                bound[k as usize] = true;
                bound[v as usize] = true;
                DriverMode::ScanKeys {
                    bind_key: k,
                    value: DriverValue::Bind(v),
                }
            }
            (Atom::Var(k), Atom::Const(c)) => {
                bound[k as usize] = true;
                DriverMode::ScanKeys {
                    bind_key: k,
                    value: DriverValue::CheckConst(c),
                }
            }
            (Atom::Const(c), Atom::Var(v)) => {
                bound[v as usize] = true;
                DriverMode::ScanGroup {
                    key: c,
                    bind_value: v,
                }
            }
            (Atom::Const(k), Atom::Const(v)) => DriverMode::Existence { key: k, value: v },
        };

        // Probe steps.
        let mut compiled = Vec::with_capacity(steps.len().saturating_sub(1));
        for (i, s) in steps.iter().enumerate().skip(1) {
            let key = match s.key {
                Atom::Const(c) => KeyMode::Const(c),
                Atom::Var(v) => {
                    if !bound[v as usize] {
                        return Err(PlanError::UnboundKey { step: i, var: v });
                    }
                    KeyMode::Var(v)
                }
            };
            let value = match s.value {
                Atom::Const(c) => ValueMode::CheckConst(c),
                Atom::Var(v) => {
                    if s.key == s.value {
                        ValueMode::CheckEqKey
                    } else if bound[v as usize] {
                        ValueMode::CheckVar(v)
                    } else {
                        bound[v as usize] = true;
                        ValueMode::Bind(v)
                    }
                }
            };
            compiled.push(CompiledStep { key, value });
        }

        for &v in &projection {
            if v as usize >= num_vars {
                return Err(PlanError::VarOutOfRange(v));
            }
            if !bound[v as usize] {
                return Err(PlanError::UnboundProjection(v));
            }
        }

        Ok(PhysicalPlan {
            steps,
            num_vars,
            projection,
            driver,
            compiled,
        })
    }

    /// The declarative steps: the driver scan, then one probe each.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Total number of variable slots.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Variables returned per result row, in output order.
    pub fn projection(&self) -> &[VarId] {
        &self.projection
    }

    /// Human-readable plan rendering (one step per line).
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let atom = |a: Atom| match a {
            Atom::Var(v) => format!("?{v}"),
            Atom::Const(c) => format!("#{c}"),
        };
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let kind = if i == 0 { "scan " } else { "probe" };
            writeln!(
                out,
                "{kind} p{} {} key={} value={}",
                s.predicate,
                s.order,
                atom(s.key),
                atom(s.value)
            )
            .expect("write to string");
        }
        write!(
            out,
            "project [{}]",
            self.projection
                .iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
        .expect("write to string");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(pred: Id, key: Atom, value: Atom) -> PlanStep {
        PlanStep {
            predicate: pred,
            order: SortOrder::SO,
            key,
            value,
        }
    }

    #[test]
    fn valid_two_step_plan() {
        let p = PhysicalPlan::new(
            vec![
                step(0, Atom::Var(0), Atom::Var(1)),
                step(1, Atom::Var(0), Atom::Var(2)),
            ],
            3,
            vec![0, 1, 2],
        )
        .unwrap();
        assert!(matches!(p.driver, DriverMode::ScanKeys { bind_key: 0, .. }));
        assert_eq!(p.compiled.len(), 1);
        assert_eq!(
            p.compiled[0],
            CompiledStep {
                key: KeyMode::Var(0),
                value: ValueMode::Bind(2)
            }
        );
    }

    #[test]
    fn driver_modes() {
        // Constant key → group scan (Example 3.2).
        let p =
            PhysicalPlan::new(vec![step(0, Atom::Const(10), Atom::Var(0))], 1, vec![0]).unwrap();
        assert_eq!(
            p.driver,
            DriverMode::ScanGroup {
                key: 10,
                bind_value: 0
            }
        );
        // Fully constant → existence.
        let p =
            PhysicalPlan::new(vec![step(0, Atom::Const(1), Atom::Const(2))], 0, vec![]).unwrap();
        assert_eq!(p.driver, DriverMode::Existence { key: 1, value: 2 });
        // Repeated variable.
        let p = PhysicalPlan::new(vec![step(0, Atom::Var(0), Atom::Var(0))], 1, vec![0]).unwrap();
        assert!(matches!(
            p.driver,
            DriverMode::ScanKeys {
                value: DriverValue::CheckEqKey,
                ..
            }
        ));
    }

    #[test]
    fn value_modes_compiled() {
        // ?y rebound as check in step 2.
        let p = PhysicalPlan::new(
            vec![
                step(0, Atom::Var(0), Atom::Var(1)),
                step(1, Atom::Var(1), Atom::Var(2)),
                step(2, Atom::Var(0), Atom::Var(2)),
            ],
            3,
            vec![0],
        )
        .unwrap();
        assert_eq!(p.compiled[0].value, ValueMode::Bind(2));
        assert_eq!(p.compiled[1].value, ValueMode::CheckVar(2));
    }

    #[test]
    fn rejects_invalid_plans() {
        assert_eq!(
            PhysicalPlan::new(vec![], 0, vec![]).unwrap_err(),
            PlanError::Empty
        );
        // Key var never bound.
        let e = PhysicalPlan::new(
            vec![
                step(0, Atom::Var(0), Atom::Var(1)),
                step(1, Atom::Var(2), Atom::Var(0)),
            ],
            3,
            vec![0],
        )
        .unwrap_err();
        assert_eq!(e, PlanError::UnboundKey { step: 1, var: 2 });
        // Projection var never bound.
        let e =
            PhysicalPlan::new(vec![step(0, Atom::Var(0), Atom::Var(1))], 3, vec![2]).unwrap_err();
        assert_eq!(e, PlanError::UnboundProjection(2));
        // Var id out of range.
        let e =
            PhysicalPlan::new(vec![step(0, Atom::Var(5), Atom::Var(1))], 2, vec![]).unwrap_err();
        assert_eq!(e, PlanError::VarOutOfRange(5));
    }

    #[test]
    fn explain_is_readable() {
        let p = PhysicalPlan::new(
            vec![
                step(7, Atom::Var(0), Atom::Var(1)),
                step(8, Atom::Var(0), Atom::Const(42)),
            ],
            2,
            vec![1],
        )
        .unwrap();
        let text = p.explain();
        assert!(text.contains("scan  p7"));
        assert!(text.contains("probe p8"));
        assert!(text.contains("#42"));
        assert!(text.contains("project [?1]"));
    }

    #[test]
    fn subject_object_unflips() {
        let s = PlanStep {
            predicate: 0,
            order: SortOrder::OS,
            key: Atom::Const(5),
            value: Atom::Var(0),
        };
        assert_eq!(s.subject_object(), (Atom::Var(0), Atom::Const(5)));
    }
}
