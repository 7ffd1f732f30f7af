//! Monomorphic types, datatype environments and exception environments for
//! `LambdaExp`.

use std::fmt;

/// Identifier of a datatype (index into [`DataEnv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TyConId(pub u32);

/// Identifier of a value constructor within its datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConId(pub u32);

/// Identifier of an exception constructor (index into [`ExnEnv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExnId(pub u32);

/// A monomorphic `LambdaExp` type.
///
/// Type variables do not appear after elaboration: polymorphic bindings are
/// specialized per ground instantiation and unconstrained variables default
/// to `Int` (mirroring SML's overloading defaults).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LTy {
    /// An erased type variable. Polymorphic functions are compiled once
    /// (as in the ML Kit); values of variable type are handled uniformly
    /// and no allocation ever happens *at* a variable type, so region
    /// inference and the garbage collector never need its structure.
    TyVar(u32),
    /// Unboxed machine integer (also used for characters and booleans'
    /// runtime representation; `Bool` is kept distinct for checking).
    Int,
    /// Boolean.
    Bool,
    /// Unit.
    Unit,
    /// Boxed 64-bit float (allocated in a region).
    Real,
    /// Immutable string (a large object, paper §3.1).
    Str,
    /// Applied datatype, e.g. `int list`.
    Con(TyConId, Vec<LTy>),
    /// Function type.
    Arrow(Box<LTy>, Box<LTy>),
    /// Tuple type (arity >= 2; unit is `Unit`).
    Tuple(Vec<LTy>),
    /// Mutable reference cell.
    Ref(Box<LTy>),
    /// Mutable array (a large object).
    Array(Box<LTy>),
    /// Exception value.
    Exn,
}

impl LTy {
    /// Convenience constructor for `t1 -> t2`.
    pub fn arrow(a: LTy, b: LTy) -> LTy {
        LTy::Arrow(Box::new(a), Box::new(b))
    }
}

impl fmt::Display for LTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LTy::TyVar(n) => write!(f, "'a{n}"),
            LTy::Int => write!(f, "int"),
            LTy::Bool => write!(f, "bool"),
            LTy::Unit => write!(f, "unit"),
            LTy::Real => write!(f, "real"),
            LTy::Str => write!(f, "string"),
            LTy::Con(tc, args) => {
                if args.is_empty() {
                    write!(f, "t{}", tc.0)
                } else {
                    let inner: Vec<String> = args.iter().map(|t| t.to_string()).collect();
                    write!(f, "({}) t{}", inner.join(", "), tc.0)
                }
            }
            LTy::Arrow(a, b) => write!(f, "({a} -> {b})"),
            LTy::Tuple(ts) => {
                let inner: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
                write!(f, "({})", inner.join(" * "))
            }
            LTy::Ref(t) => write!(f, "{t} ref"),
            LTy::Array(t) => write!(f, "{t} array"),
            LTy::Exn => write!(f, "exn"),
        }
    }
}

/// One value constructor of a datatype.
#[derive(Debug, Clone, PartialEq)]
pub struct Constructor {
    /// Source name, for diagnostics and printing.
    pub name: String,
    /// Argument type in terms of the datatype's formal type parameters,
    /// encoded as [`SchemeTy::Param`] indices below [`Datatype::arity`].
    pub arg: Option<SchemeTy>,
}

/// A type possibly mentioning the enclosing datatype's formal parameters.
///
/// Formal parameter `i` is represented as [`SchemeTy::Param`]`(i)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchemeTy {
    /// The `i`-th formal type parameter of the enclosing datatype.
    Param(u32),
    /// Ground/applied type.
    Int,
    /// Boolean.
    Bool,
    /// Unit.
    Unit,
    /// Real.
    Real,
    /// String.
    Str,
    /// Applied datatype.
    Con(TyConId, Vec<SchemeTy>),
    /// Function.
    Arrow(Box<SchemeTy>, Box<SchemeTy>),
    /// Tuple.
    Tuple(Vec<SchemeTy>),
    /// Reference.
    Ref(Box<SchemeTy>),
    /// Array.
    Array(Box<SchemeTy>),
    /// Exception.
    Exn,
}

impl SchemeTy {
    /// Instantiates the scheme with concrete `args` for the datatype's
    /// formal parameters.
    ///
    /// # Panics
    ///
    /// Panics if a parameter index is out of range of `args`.
    pub fn instantiate(&self, args: &[LTy]) -> LTy {
        match self {
            SchemeTy::Param(i) => args[*i as usize].clone(),
            SchemeTy::Int => LTy::Int,
            SchemeTy::Bool => LTy::Bool,
            SchemeTy::Unit => LTy::Unit,
            SchemeTy::Real => LTy::Real,
            SchemeTy::Str => LTy::Str,
            SchemeTy::Con(tc, ts) => {
                LTy::Con(*tc, ts.iter().map(|t| t.instantiate(args)).collect())
            }
            SchemeTy::Arrow(a, b) => LTy::arrow(a.instantiate(args), b.instantiate(args)),
            SchemeTy::Tuple(ts) => LTy::Tuple(ts.iter().map(|t| t.instantiate(args)).collect()),
            SchemeTy::Ref(t) => LTy::Ref(Box::new(t.instantiate(args))),
            SchemeTy::Array(t) => LTy::Array(Box::new(t.instantiate(args))),
            SchemeTy::Exn => LTy::Exn,
        }
    }
}

/// A datatype declaration in the datatype environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Datatype {
    /// Source name.
    pub name: String,
    /// Number of formal type parameters.
    pub arity: u32,
    /// The value constructors, indexed by [`ConId`].
    pub constructors: Vec<Constructor>,
}

impl Datatype {
    /// Number of constructors that carry an argument (boxed at runtime).
    pub fn boxed_count(&self) -> usize {
        self.constructors.iter().filter(|c| c.arg.is_some()).count()
    }
}

/// The datatype environment of a program.
///
/// `TyConId(0)` is always the built-in `list` datatype with constructors
/// `nil` (`ConId(0)`) and `::` (`ConId(1)`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataEnv {
    datatypes: Vec<Datatype>,
}

/// The [`TyConId`] of the built-in `list` datatype.
pub const LIST: TyConId = TyConId(0);
/// The [`ConId`] of `nil`.
pub const NIL: ConId = ConId(0);
/// The [`ConId`] of `::`.
pub const CONS: ConId = ConId(1);

impl DataEnv {
    /// Creates a datatype environment containing the built-in `list`.
    pub fn new() -> Self {
        let list = Datatype {
            name: "list".to_string(),
            arity: 1,
            constructors: vec![
                Constructor {
                    name: "nil".to_string(),
                    arg: None,
                },
                Constructor {
                    name: "::".to_string(),
                    arg: Some(SchemeTy::Tuple(vec![
                        SchemeTy::Param(0),
                        SchemeTy::Con(LIST, vec![SchemeTy::Param(0)]),
                    ])),
                },
            ],
        };
        DataEnv {
            datatypes: vec![list],
        }
    }

    /// Registers a datatype, returning its id.
    pub fn define(&mut self, dt: Datatype) -> TyConId {
        let id = TyConId(self.datatypes.len() as u32);
        self.datatypes.push(dt);
        id
    }

    /// Reserves a slot for a datatype that will be filled in later
    /// (supporting mutual recursion between datatype bindings).
    pub fn reserve(&mut self, name: &str) -> TyConId {
        self.define(Datatype {
            name: name.to_string(),
            arity: 0,
            constructors: Vec::new(),
        })
    }

    /// Replaces the contents of a reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this environment.
    pub fn fill(&mut self, id: TyConId, dt: Datatype) {
        self.datatypes[id.0 as usize] = dt;
    }

    /// Looks up a datatype.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this environment.
    pub fn get(&self, id: TyConId) -> &Datatype {
        &self.datatypes[id.0 as usize]
    }

    /// Iterates over `(id, datatype)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TyConId, &Datatype)> {
        self.datatypes
            .iter()
            .enumerate()
            .map(|(i, d)| (TyConId(i as u32), d))
    }

    /// The instantiated argument type of constructor `con` of `tycon`
    /// applied to `args`, if the constructor carries a value.
    pub fn con_arg_ty(&self, tycon: TyConId, con: ConId, args: &[LTy]) -> Option<LTy> {
        self.get(tycon).constructors[con.0 as usize]
            .arg
            .as_ref()
            .map(|s| s.instantiate(args))
    }
}

/// One exception constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExnCon {
    /// Source name.
    pub name: String,
    /// Argument type, if the exception carries a value.
    pub arg: Option<LTy>,
}

/// The exception environment of a program.
///
/// The standard exceptions `Div`, `Overflow`, `Subscript`, `Size`, `Match`
/// and `Bind` occupy the first six slots.
#[derive(Debug, Clone, PartialEq)]
pub struct ExnEnv {
    exns: Vec<ExnCon>,
}

/// [`ExnId`] of the `Div` exception.
pub const EXN_DIV: ExnId = ExnId(0);
/// [`ExnId`] of the `Overflow` exception.
pub const EXN_OVERFLOW: ExnId = ExnId(1);
/// [`ExnId`] of the `Subscript` exception.
pub const EXN_SUBSCRIPT: ExnId = ExnId(2);
/// [`ExnId`] of the `Size` exception.
pub const EXN_SIZE: ExnId = ExnId(3);
/// [`ExnId`] of the `Match` exception.
pub const EXN_MATCH: ExnId = ExnId(4);
/// [`ExnId`] of the `Bind` exception.
pub const EXN_BIND: ExnId = ExnId(5);

impl Default for ExnEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl ExnEnv {
    /// Creates an exception environment with the standard exceptions.
    pub fn new() -> Self {
        let std = ["Div", "Overflow", "Subscript", "Size", "Match", "Bind"];
        ExnEnv {
            exns: std
                .iter()
                .map(|n| ExnCon {
                    name: n.to_string(),
                    arg: None,
                })
                .collect(),
        }
    }

    /// Registers an exception constructor, returning its id.
    pub fn define(&mut self, name: &str, arg: Option<LTy>) -> ExnId {
        let id = ExnId(self.exns.len() as u32);
        self.exns.push(ExnCon {
            name: name.to_string(),
            arg,
        });
        id
    }

    /// Looks up an exception constructor.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this environment.
    pub fn get(&self, id: ExnId) -> &ExnCon {
        &self.exns[id.0 as usize]
    }

    /// Number of registered exception constructors.
    pub fn len(&self) -> usize {
        self.exns.len()
    }

    /// `true` if no exceptions are registered (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.exns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_predefined() {
        let env = DataEnv::new();
        let list = env.get(LIST);
        assert_eq!(list.name, "list");
        assert_eq!(list.constructors.len(), 2);
        assert_eq!(list.boxed_count(), 1);
    }

    #[test]
    fn cons_arg_instantiates() {
        let env = DataEnv::new();
        let arg = env.con_arg_ty(LIST, CONS, &[LTy::Int]).unwrap();
        assert_eq!(
            arg,
            LTy::Tuple(vec![LTy::Int, LTy::Con(LIST, vec![LTy::Int])])
        );
    }

    #[test]
    fn std_exceptions_present() {
        let env = ExnEnv::new();
        assert_eq!(env.get(EXN_DIV).name, "Div");
        assert_eq!(env.get(EXN_MATCH).name, "Match");
        assert_eq!(env.len(), 6);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(LTy::arrow(LTy::Int, LTy::Bool).to_string(), "(int -> bool)");
    }
}
