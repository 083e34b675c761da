//! Mutable, trainable variables (`tf.variable`).
//!
//! A [`Variable`] owns a tensor that survives all `tidy` scopes and can be
//! re-assigned in place by optimizers.

use crate::error::{Error, Result};
use crate::shape::Shape;
use crate::tensor::Tensor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

struct VariableInner {
    id: u64,
    name: String,
    trainable: bool,
    value: Mutex<Tensor>,
}

/// A named, optionally trainable tensor container.
#[derive(Clone)]
pub struct Variable {
    inner: Arc<VariableInner>,
}

impl Variable {
    /// Wrap `initial` as a trainable variable. The tensor is marked kept so
    /// no `tidy` scope can dispose it.
    pub fn new(initial: Tensor, name: impl Into<String>) -> Variable {
        Self::with_trainable(initial, name, true)
    }

    /// Create a variable with an explicit `trainable` flag.
    pub fn with_trainable(initial: Tensor, name: impl Into<String>, trainable: bool) -> Variable {
        initial.engine().mark_variable(initial.id());
        let id = NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed);
        let mut name = name.into();
        if name.is_empty() {
            name = format!("variable_{id}");
        }
        Variable {
            inner: Arc::new(VariableInner { id, name, trainable, value: Mutex::new(initial) }),
        }
    }

    /// The variable's identity: unique in the process and shared by its
    /// clones, unlike its name, which need not be unique.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether optimizers should update this variable.
    pub fn trainable(&self) -> bool {
        self.inner.trainable
    }

    /// A handle to the current value.
    pub fn value(&self) -> Tensor {
        self.inner.value.lock().clone()
    }

    /// Shape of the current value.
    pub fn shape(&self) -> Shape {
        self.inner.value.lock().shape()
    }

    /// Replace the value. The previous tensor is disposed; the new one is
    /// marked kept.
    ///
    /// # Errors
    /// Fails when the new value's shape differs from the current shape.
    pub fn assign(&self, new_value: Tensor) -> Result<()> {
        let mut slot = self.inner.value.lock();
        if new_value.shape_ref() != slot.shape_ref() {
            return Err(Error::shape(
                "Variable.assign",
                format!("cannot assign {} into variable of shape {}", new_value.shape(), slot.shape()),
            ));
        }
        new_value.engine().mark_variable(new_value.id());
        let old = std::mem::replace(&mut *slot, new_value);
        drop(slot);
        old.dispose();
        Ok(())
    }

    /// Dispose the variable's storage.
    pub fn dispose(&self) {
        self.inner.value.lock().dispose();
    }
}

impl std::fmt::Debug for Variable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Variable")
            .field("name", &self.inner.name)
            .field("trainable", &self.inner.trainable)
            .field("shape", &self.shape())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::test_engine;

    #[test]
    fn variable_survives_tidy() {
        let e = test_engine();
        e.tidy(|| {
            let t = e.tensor_1d(&[1.0, 2.0]).unwrap();
            Variable::new(t, "w");
            // Return nothing: the variable's tensor must still survive.
        });
        assert_eq!(e.num_tensors(), 1);
    }

    #[test]
    fn assign_replaces_and_disposes_old() {
        let e = test_engine();
        let v = Variable::new(e.tensor_1d(&[1.0]).unwrap(), "w");
        let old = v.value();
        v.assign(e.tensor_1d(&[2.0]).unwrap()).unwrap();
        assert!(old.is_disposed());
        assert_eq!(v.value().to_f32_vec().unwrap(), vec![2.0]);
        assert_eq!(e.num_tensors(), 1);
    }

    #[test]
    fn assign_shape_mismatch_errors() {
        let e = test_engine();
        let v = Variable::new(e.tensor_1d(&[1.0]).unwrap(), "w");
        assert!(v.assign(e.tensor_1d(&[1.0, 2.0]).unwrap()).is_err());
    }

    #[test]
    fn auto_names_are_unique() {
        let e = test_engine();
        let a = Variable::new(e.tensor_1d(&[1.0]).unwrap(), "");
        let b = Variable::new(e.tensor_1d(&[1.0]).unwrap(), "");
        assert_ne!(a.name(), b.name());
    }
}
