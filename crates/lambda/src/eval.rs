//! Reference evaluator for `LambdaExp`.
//!
//! A direct, region-free, GC-free tree-walking interpreter. It defines the
//! observable semantics that every execution mode of the real system must
//! reproduce; the workspace integration tests run each benchmark under all
//! modes and compare results and printed output against this oracle.
//!
//! The evaluator iterates on tail positions (applications in tail position
//! do not grow the Rust stack) and supports a fuel limit so that property
//! tests can safely execute randomly generated programs.

use crate::exp::{FixFun, LExp, Prim, VarId};
use crate::ty::{ConId, ExnEnv, ExnId, TyConId};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A runtime value of the reference evaluator.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    /// Integer (also booleans-as-needed; booleans use [`Value::Bool`]).
    Int(i64),
    /// Real.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// Unit.
    Unit,
    /// String.
    Str(Rc<str>),
    /// Tuple.
    Tuple(Rc<[Value<'a>]>),
    /// Datatype constructor value.
    Con {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Carried value.
        arg: Option<Rc<Value<'a>>>,
    },
    /// Exception value.
    Exn(ExnId, Option<Rc<Value<'a>>>),
    /// Closure from `fn`.
    Closure {
        /// Parameters.
        params: &'a [(VarId, crate::ty::LTy)],
        /// Body.
        body: &'a LExp,
        /// Captured environment.
        env: Env<'a>,
    },
    /// Closure of a `Fix`-bound function, materialized lazily on lookup.
    FixClosure(Rc<RecNode<'a>>, usize),
    /// Mutable reference cell.
    Ref(Rc<RefCell<Value<'a>>>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<Value<'a>>>>),
}

impl Value<'_> {
    fn int(&self) -> i64 {
        match self {
            Value::Int(n) => *n,
            other => panic!("expected int, got {other:?} (ill-typed LambdaExp)"),
        }
    }

    fn real(&self) -> f64 {
        match self {
            Value::Real(r) => *r,
            other => panic!("expected real, got {other:?} (ill-typed LambdaExp)"),
        }
    }

    fn boolean(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, got {other:?} (ill-typed LambdaExp)"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?} (ill-typed LambdaExp)"),
        }
    }
}

/// A recursive-binding environment node: the functions of one `Fix`.
#[derive(Debug)]
pub struct RecNode<'a> {
    funs: &'a [FixFun],
    parent: Env<'a>,
}

#[derive(Debug)]
enum EnvNode<'a> {
    Bind(VarId, Value<'a>, Env<'a>),
    Rec(Rc<RecNode<'a>>, Env<'a>),
}

/// A persistent evaluation environment.
#[derive(Debug, Clone, Default)]
pub struct Env<'a>(Option<Rc<EnvNode<'a>>>);

impl<'a> Env<'a> {
    /// The empty environment.
    pub fn new() -> Self {
        Env(None)
    }

    fn bind(&self, v: VarId, val: Value<'a>) -> Env<'a> {
        Env(Some(Rc::new(EnvNode::Bind(v, val, self.clone()))))
    }

    fn bind_rec(&self, funs: &'a [FixFun]) -> Env<'a> {
        let node = Rc::new(RecNode {
            funs,
            parent: self.clone(),
        });
        Env(Some(Rc::new(EnvNode::Rec(node, self.clone()))))
    }

    fn lookup(&self, v: VarId) -> Option<Value<'a>> {
        let mut cur = &self.0;
        while let Some(node) = cur {
            match &**node {
                EnvNode::Bind(w, val, parent) => {
                    if *w == v {
                        return Some(val.clone());
                    }
                    cur = &parent.0;
                }
                EnvNode::Rec(rec, parent) => {
                    if let Some(i) = rec.funs.iter().position(|f| f.var == v) {
                        return Some(Value::FixClosure(rec.clone(), i));
                    }
                    cur = &parent.0;
                }
            }
        }
        None
    }
}

/// Errors terminating evaluation abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// An exception propagated to the top level.
    UncaughtException(String),
    /// The fuel limit was exhausted.
    OutOfFuel,
    /// An unbound variable was referenced (elaboration bug).
    UnboundVariable(u32),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UncaughtException(n) => write!(f, "uncaught exception {n}"),
            EvalError::OutOfFuel => write!(f, "evaluation fuel exhausted"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable v{v}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Outcome of a successful evaluation.
#[derive(Debug)]
pub struct EvalOutcome<'a> {
    /// The program's result value.
    pub value: Value<'a>,
    /// Everything written by `print`, in order.
    pub output: String,
    /// Number of evaluation steps taken.
    pub steps: u64,
}

type Raised<'a> = (ExnId, Option<Rc<Value<'a>>>);
enum Control<'a> {
    Done(Value<'a>),
    Raise(Raised<'a>),
}

/// Evaluates a program body with an optional fuel limit.
///
/// # Errors
///
/// Returns [`EvalError::UncaughtException`] if an exception reaches the top
/// level, and [`EvalError::OutOfFuel`] if `fuel` is `Some` and exhausted.
pub fn eval<'a>(
    body: &'a LExp,
    exns: &ExnEnv,
    fuel: Option<u64>,
) -> Result<EvalOutcome<'a>, EvalError> {
    let mut ev = Evaluator {
        output: String::new(),
        steps: 0,
        fuel,
    };
    match ev.eval(body, &Env::new())? {
        Control::Done(v) => Ok(EvalOutcome {
            value: v,
            output: ev.output,
            steps: ev.steps,
        }),
        Control::Raise((id, _)) => Err(EvalError::UncaughtException(exns.get(id).name.clone())),
    }
}

struct Evaluator {
    output: String,
    steps: u64,
    fuel: Option<u64>,
}

macro_rules! eval_sub {
    ($self:ident, $e:expr, $env:expr) => {
        match $self.eval($e, $env)? {
            Control::Done(v) => v,
            Control::Raise(r) => return Ok(Control::Raise(r)),
        }
    };
}

impl Evaluator {
    fn eval<'a>(&mut self, exp: &'a LExp, env: &Env<'a>) -> Result<Control<'a>, EvalError> {
        // `exp`/`env` are rebound on tail positions; the loop keeps tail
        // calls from consuming Rust stack.
        let mut exp = exp;
        let mut env = env.clone();
        loop {
            self.steps += 1;
            if let Some(f) = self.fuel {
                if self.steps > f {
                    return Err(EvalError::OutOfFuel);
                }
            }
            match exp {
                LExp::Var(v) => {
                    let val = env.lookup(*v).ok_or(EvalError::UnboundVariable(v.0))?;
                    return Ok(Control::Done(val));
                }
                LExp::Int(n) => return Ok(Control::Done(Value::Int(*n))),
                LExp::Real(r) => return Ok(Control::Done(Value::Real(*r))),
                LExp::Str(s) => return Ok(Control::Done(Value::Str(s.as_str().into()))),
                LExp::Bool(b) => return Ok(Control::Done(Value::Bool(*b))),
                LExp::Unit => return Ok(Control::Done(Value::Unit)),
                LExp::Prim(p, args) => {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(eval_sub!(self, a, &env));
                    }
                    return self.prim(*p, vals);
                }
                LExp::Record(es) => {
                    let mut vals = Vec::with_capacity(es.len());
                    for e in es {
                        vals.push(eval_sub!(self, e, &env));
                    }
                    return Ok(Control::Done(Value::Tuple(vals.into())));
                }
                LExp::Select { i, tup: e, .. } => {
                    let v = eval_sub!(self, e, &env);
                    let Value::Tuple(fields) = v else {
                        panic!("select from non-tuple (ill-typed LambdaExp)")
                    };
                    return Ok(Control::Done(fields[*i].clone()));
                }
                LExp::Con {
                    tycon, con, arg, ..
                } => {
                    let a = match arg {
                        Some(e) => Some(Rc::new(eval_sub!(self, e, &env))),
                        None => None,
                    };
                    return Ok(Control::Done(Value::Con {
                        tycon: *tycon,
                        con: *con,
                        arg: a,
                    }));
                }
                LExp::DeCon { scrut, .. } => {
                    let v = eval_sub!(self, scrut, &env);
                    let Value::Con { arg: Some(a), .. } = v else {
                        panic!("decon of non-matching constructor (ill-typed LambdaExp)")
                    };
                    return Ok(Control::Done((*a).clone()));
                }
                LExp::SwitchCon {
                    scrut,
                    arms,
                    default,
                    ..
                } => {
                    let v = eval_sub!(self, scrut, &env);
                    let Value::Con { con, .. } = &v else {
                        panic!("switch on non-constructor (ill-typed LambdaExp)")
                    };
                    match arms.iter().find(|(c, _)| c == con) {
                        Some((_, arm)) => exp = arm,
                        None => match default {
                            Some(d) => exp = d,
                            None => panic!("non-exhaustive SwitchCon with no default"),
                        },
                    }
                }
                LExp::SwitchInt {
                    scrut,
                    arms,
                    default,
                } => {
                    let v = eval_sub!(self, scrut, &env);
                    let n = match &v {
                        Value::Int(n) => *n,
                        Value::Bool(b) => *b as i64,
                        other => panic!("switch on non-int {other:?}"),
                    };
                    match arms.iter().find(|(k, _)| *k == n) {
                        Some((_, arm)) => exp = arm,
                        None => exp = default,
                    }
                }
                LExp::SwitchStr {
                    scrut,
                    arms,
                    default,
                } => {
                    let v = eval_sub!(self, scrut, &env);
                    let s = v.str().to_string();
                    match arms.iter().find(|(k, _)| *k == s) {
                        Some((_, arm)) => exp = arm,
                        None => exp = default,
                    }
                }
                LExp::Fn { params, body, .. } => {
                    return Ok(Control::Done(Value::Closure {
                        params,
                        body,
                        env: env.clone(),
                    }));
                }
                LExp::App(f, args) => {
                    let fv = eval_sub!(self, f, &env);
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(eval_sub!(self, a, &env));
                    }
                    match fv {
                        Value::Closure {
                            params,
                            body,
                            env: cenv,
                        } => {
                            assert_eq!(params.len(), vals.len(), "arity mismatch");
                            let mut e2 = cenv;
                            for ((p, _), v) in params.iter().zip(vals) {
                                e2 = e2.bind(*p, v);
                            }
                            env = e2;
                            exp = body;
                        }
                        Value::FixClosure(node, idx) => {
                            let fun = &node.funs[idx];
                            assert_eq!(fun.params.len(), vals.len(), "arity mismatch");
                            let mut e2 = node.parent.bind_rec(node.funs);
                            for ((p, _), v) in fun.params.iter().zip(vals) {
                                e2 = e2.bind(*p, v);
                            }
                            env = e2;
                            exp = &fun.body;
                        }
                        other => panic!("application of non-function {other:?}"),
                    }
                }
                LExp::Let { var, rhs, body, .. } => {
                    let v = eval_sub!(self, rhs, &env);
                    env = env.bind(*var, v);
                    exp = body;
                }
                LExp::Fix { funs, body } => {
                    env = env.bind_rec(funs);
                    exp = body;
                }
                LExp::If(c, t, e) => {
                    let v = eval_sub!(self, c, &env);
                    exp = if v.boolean() { t } else { e };
                }
                LExp::ExCon { exn, arg } => {
                    let a = match arg {
                        Some(e) => Some(Rc::new(eval_sub!(self, e, &env))),
                        None => None,
                    };
                    return Ok(Control::Done(Value::Exn(*exn, a)));
                }
                LExp::DeExn { scrut, .. } => {
                    let v = eval_sub!(self, scrut, &env);
                    let Value::Exn(_, Some(a)) = v else {
                        panic!("deexn of non-matching exception")
                    };
                    return Ok(Control::Done((*a).clone()));
                }
                LExp::SwitchExn {
                    scrut,
                    arms,
                    default,
                } => {
                    let v = eval_sub!(self, scrut, &env);
                    let Value::Exn(id, _) = &v else {
                        panic!("switch on non-exception")
                    };
                    match arms.iter().find(|(k, _)| k == id) {
                        Some((_, arm)) => exp = arm,
                        None => exp = default,
                    }
                }
                LExp::Raise { exp: e, .. } => {
                    let v = eval_sub!(self, e, &env);
                    let Value::Exn(id, arg) = v else {
                        panic!("raise of non-exception value")
                    };
                    return Ok(Control::Raise((id, arg)));
                }
                LExp::Handle { body, var, handler } => match self.eval(body, &env)? {
                    Control::Done(v) => return Ok(Control::Done(v)),
                    Control::Raise((id, arg)) => {
                        let env2 = env.bind(*var, Value::Exn(id, arg));
                        env = env2;
                        exp = handler;
                    }
                },
            }
        }
    }

    fn prim<'a>(&mut self, p: Prim, mut args: Vec<Value<'a>>) -> Result<Control<'a>, EvalError> {
        use Prim::*;
        let raise = |id: ExnId| Ok(Control::Raise((id, None)));
        let done = |v: Value<'a>| Ok(Control::Done(v));
        macro_rules! binint {
            ($f:expr) => {{
                let b = args.pop().unwrap().int();
                let a = args.pop().unwrap().int();
                ($f)(a, b)
            }};
        }
        macro_rules! binreal {
            ($f:expr) => {{
                let b = args.pop().unwrap().real();
                let a = args.pop().unwrap().real();
                ($f)(a, b)
            }};
        }
        match p {
            IAdd => match binint!(i64::checked_add).filter(|v| int_in_range(*v)) {
                Some(v) => done(Value::Int(v)),
                None => raise(crate::ty::EXN_OVERFLOW),
            },
            ISub => match binint!(i64::checked_sub).filter(|v| int_in_range(*v)) {
                Some(v) => done(Value::Int(v)),
                None => raise(crate::ty::EXN_OVERFLOW),
            },
            IMul => match binint!(i64::checked_mul).filter(|v| int_in_range(*v)) {
                Some(v) => done(Value::Int(v)),
                None => raise(crate::ty::EXN_OVERFLOW),
            },
            IDiv | IMod => {
                let b = args.pop().unwrap().int();
                let a = args.pop().unwrap().int();
                if b == 0 {
                    return raise(crate::ty::EXN_DIV);
                }
                match floor_div_mod(p, a, b) {
                    Some(v) => done(Value::Int(v)),
                    None => raise(crate::ty::EXN_OVERFLOW),
                }
            }
            INeg => {
                let v = -args.pop().unwrap().int();
                if int_in_range(v) {
                    done(Value::Int(v))
                } else {
                    raise(crate::ty::EXN_OVERFLOW)
                }
            }
            IAbs => {
                let v = args.pop().unwrap().int().abs();
                if int_in_range(v) {
                    done(Value::Int(v))
                } else {
                    raise(crate::ty::EXN_OVERFLOW)
                }
            }
            ILt => done(Value::Bool(binint!(|a, b| a < b))),
            ILe => done(Value::Bool(binint!(|a, b| a <= b))),
            IGt => done(Value::Bool(binint!(|a, b| a > b))),
            IGe => done(Value::Bool(binint!(|a, b| a >= b))),
            IEq => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                let to_i = |v: &Value<'_>| match v {
                    Value::Int(n) => *n,
                    Value::Bool(b) => *b as i64,
                    Value::Unit => 0,
                    other => panic!("IEq on {other:?}"),
                };
                done(Value::Bool(to_i(&a) == to_i(&b)))
            }
            RAdd => done(Value::Real(binreal!(|a, b| a + b))),
            RSub => done(Value::Real(binreal!(|a, b| a - b))),
            RMul => done(Value::Real(binreal!(|a, b| a * b))),
            RDiv => done(Value::Real(binreal!(|a, b| a / b))),
            RNeg => done(Value::Real(-args.pop().unwrap().real())),
            RAbs => done(Value::Real(args.pop().unwrap().real().abs())),
            RLt => done(Value::Bool(binreal!(|a, b| a < b))),
            RLe => done(Value::Bool(binreal!(|a, b| a <= b))),
            RGt => done(Value::Bool(binreal!(|a, b| a > b))),
            RGe => done(Value::Bool(binreal!(|a, b| a >= b))),
            REq => done(Value::Bool(binreal!(|a: f64, b: f64| a == b))),
            IntToReal => done(Value::Real(args.pop().unwrap().int() as f64)),
            Floor | Trunc => match real_to_int(p, args.pop().unwrap().real()) {
                Some(v) => done(Value::Int(v)),
                None => raise(crate::ty::EXN_OVERFLOW),
            },
            Sqrt => done(Value::Real(args.pop().unwrap().real().sqrt())),
            Sin => done(Value::Real(args.pop().unwrap().real().sin())),
            Cos => done(Value::Real(args.pop().unwrap().real().cos())),
            Atan => done(Value::Real(args.pop().unwrap().real().atan())),
            Ln => done(Value::Real(args.pop().unwrap().real().ln())),
            Exp => done(Value::Real(args.pop().unwrap().real().exp())),
            StrEq => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                done(Value::Bool(a.str() == b.str()))
            }
            StrLt => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                done(Value::Bool(a.str() < b.str()))
            }
            StrConcat => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                done(Value::Str(format!("{}{}", a.str(), b.str()).into()))
            }
            StrSize => done(Value::Int(args.pop().unwrap().str().len() as i64)),
            StrSub => {
                let i = args.pop().unwrap().int();
                let s = args.pop().unwrap();
                let bytes = s.str().as_bytes();
                if i < 0 || i as usize >= bytes.len() {
                    return raise(crate::ty::EXN_SUBSCRIPT);
                }
                done(Value::Int(bytes[i as usize] as i64))
            }
            ItoS => {
                let n = args.pop().unwrap().int();
                done(Value::Str(fmt_sml_int(n).into()))
            }
            RtoS => {
                let r = args.pop().unwrap().real();
                done(Value::Str(fmt_sml_real(r).into()))
            }
            Chr => {
                let n = args.pop().unwrap().int();
                if !(0..=255).contains(&n) {
                    return raise(crate::ty::EXN_SUBSCRIPT);
                }
                done(Value::Str(((n as u8) as char).to_string().into()))
            }
            Print => {
                let s = args.pop().unwrap();
                self.output.push_str(s.str());
                done(Value::Unit)
            }
            RefNew => done(Value::Ref(Rc::new(RefCell::new(args.pop().unwrap())))),
            RefGet => {
                let r = args.pop().unwrap();
                let Value::Ref(cell) = r else {
                    panic!("deref of non-ref")
                };
                let v = cell.borrow().clone();
                done(v)
            }
            RefSet => {
                let v = args.pop().unwrap();
                let r = args.pop().unwrap();
                let Value::Ref(cell) = r else {
                    panic!("assign to non-ref")
                };
                *cell.borrow_mut() = v;
                done(Value::Unit)
            }
            RefEq => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                let (Value::Ref(x), Value::Ref(y)) = (a, b) else {
                    panic!("refeq on non-refs")
                };
                done(Value::Bool(Rc::ptr_eq(&x, &y)))
            }
            ArrNew => {
                let init = args.pop().unwrap();
                let n = args.pop().unwrap().int();
                if n < 0 {
                    return raise(crate::ty::EXN_SIZE);
                }
                done(Value::Array(Rc::new(RefCell::new(vec![init; n as usize]))))
            }
            ArrSub => {
                let i = args.pop().unwrap().int();
                let a = args.pop().unwrap();
                let Value::Array(arr) = a else {
                    panic!("sub of non-array")
                };
                let arr = arr.borrow();
                if i < 0 || i as usize >= arr.len() {
                    return raise(crate::ty::EXN_SUBSCRIPT);
                }
                done(arr[i as usize].clone())
            }
            ArrUpd => {
                let v = args.pop().unwrap();
                let i = args.pop().unwrap().int();
                let a = args.pop().unwrap();
                let Value::Array(arr) = a else {
                    panic!("update of non-array")
                };
                let mut arr = arr.borrow_mut();
                if i < 0 || i as usize >= arr.len() {
                    return raise(crate::ty::EXN_SUBSCRIPT);
                }
                arr[i as usize] = v;
                done(Value::Unit)
            }
            ArrLen => {
                let a = args.pop().unwrap();
                let Value::Array(arr) = a else {
                    panic!("length of non-array")
                };
                let n = arr.borrow().len() as i64;
                done(Value::Int(n))
            }
            ArrEq => {
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                let (Value::Array(x), Value::Array(y)) = (a, b) else {
                    panic!("arreq on non-arrays")
                };
                done(Value::Bool(Rc::ptr_eq(&x, &y)))
            }
        }
    }
}

/// MiniML integers are 63-bit (the tagged representation is `2i + 1` in a
/// 64-bit word, exactly as in the ML Kit); arithmetic that leaves this
/// range raises `Overflow` in every execution mode.
#[inline]
pub fn int_in_range(v: i64) -> bool {
    (-(1i64 << 62)..(1i64 << 62)).contains(&v)
}

/// SML's `div` (`Prim::IDiv`) or `mod` of `a` by a nonzero `b`, both
/// rounding the quotient down; `None` if the quotient leaves the integer
/// range, which only `minInt div ~1` does (a remainder is smaller than `b`).
#[inline]
pub fn floor_div_mod(p: Prim, a: i64, b: i64) -> Option<i64> {
    let (q, r) = (a.wrapping_div(b), a.wrapping_rem(b));
    let adj = r != 0 && (r < 0) != (b < 0);
    match p {
        Prim::IDiv => Some(q - i64::from(adj)).filter(|v| int_in_range(*v)),
        _ => Some(if adj { r + b } else { r }),
    }
}

/// `floor` (`Prim::Floor`) or `trunc` of `r`; `None` if the result leaves
/// the integer range, as a huge magnitude, an infinity or NaN does (SML
/// raises `Domain` for NaN; this subset has no `Domain`, so `Overflow`
/// stands in).
#[inline]
pub fn real_to_int(p: Prim, r: f64) -> Option<i64> {
    let v = if matches!(p, Prim::Floor) {
        r.floor()
    } else {
        r.trunc()
    };
    // The bounds are powers of two, exact as reals; NaN fails both tests.
    let limit = (1i64 << 62) as f64;
    (v >= -limit && v < limit).then_some(v as i64)
}

/// Formats an integer in SML style (`~` for the minus sign).
pub fn fmt_sml_int(n: i64) -> String {
    if n < 0 {
        format!("~{}", (n as i128).unsigned_abs())
    } else {
        n.to_string()
    }
}

/// Formats a real in SML style.
pub fn fmt_sml_real(r: f64) -> String {
    let body = if r == r.trunc() && r.abs() < 1e15 {
        format!("{:.1}", r.abs())
    } else {
        format!("{}", r.abs())
    };
    if r.is_sign_negative() {
        format!("~{body}")
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{LExp, Prim, VarTable};
    use crate::ty::{ExnEnv, LTy, EXN_DIV};

    fn run(body: &LExp) -> EvalOutcome<'_> {
        eval(body, &ExnEnv::new(), Some(100_000_000)).expect("eval failed")
    }

    #[test]
    fn arithmetic() {
        let e = LExp::Prim(Prim::IAdd, vec![LExp::Int(40), LExp::Int(2)]);
        let out = run(&e);
        assert!(matches!(out.value, Value::Int(42)));
    }

    #[test]
    fn sml_division_floors() {
        // SML: ~7 div 2 = ~4, ~7 mod 2 = 1, 7 div ~2 = ~4, 7 mod ~2 = ~1
        let cases = [
            (-7, 2, -4, 1),
            (7, -2, -4, -1),
            (7, 2, 3, 1),
            (-7, -2, 3, -1),
        ];
        for (a, b, q, r) in cases {
            let d = LExp::Prim(Prim::IDiv, vec![LExp::Int(a), LExp::Int(b)]);
            let m = LExp::Prim(Prim::IMod, vec![LExp::Int(a), LExp::Int(b)]);
            assert!(
                matches!(run(&d).value, Value::Int(x) if x == q),
                "{a} div {b}"
            );
            assert!(
                matches!(run(&m).value, Value::Int(x) if x == r),
                "{a} mod {b}"
            );
        }
    }

    #[test]
    fn division_by_zero_raises_div() {
        let e = LExp::Prim(Prim::IDiv, vec![LExp::Int(1), LExp::Int(0)]);
        let err = eval(&e, &ExnEnv::new(), None).unwrap_err();
        assert_eq!(err, EvalError::UncaughtException("Div".to_string()));
        let _ = EXN_DIV;
    }

    #[test]
    fn handle_catches() {
        let mut vars = VarTable::new();
        let v = vars.fresh("e");
        let e = LExp::Handle {
            body: Box::new(LExp::Prim(Prim::IDiv, vec![LExp::Int(1), LExp::Int(0)])),
            var: v,
            handler: Box::new(LExp::Int(99)),
        };
        assert!(matches!(run(&e).value, Value::Int(99)));
    }

    #[test]
    fn closures_capture() {
        let mut vars = VarTable::new();
        let x = vars.fresh("x");
        let y = vars.fresh("y");
        // let x = 10 in (fn y => y + x) 32
        let e = LExp::Let {
            var: x,
            ty: LTy::Int,
            rhs: Box::new(LExp::Int(10)),
            body: Box::new(LExp::App(
                Box::new(LExp::Fn {
                    params: vec![(y, LTy::Int)],
                    ret: LTy::Int,
                    body: Box::new(LExp::Prim(Prim::IAdd, vec![LExp::Var(y), LExp::Var(x)])),
                }),
                vec![LExp::Int(32)],
            )),
        };
        assert!(matches!(run(&e).value, Value::Int(42)));
    }

    #[test]
    fn fix_recursion_and_tail_calls() {
        let mut vars = VarTable::new();
        let f = vars.fresh("loop");
        let n = vars.fresh("n");
        let acc = vars.fresh("acc");
        // loop(n, acc) = if n = 0 then acc else loop(n-1, acc+n); deep enough
        // to require tail-call iteration.
        let body = LExp::If(
            Box::new(LExp::Prim(Prim::IEq, vec![LExp::Var(n), LExp::Int(0)])),
            Box::new(LExp::Var(acc)),
            Box::new(LExp::App(
                Box::new(LExp::Var(f)),
                vec![
                    LExp::Prim(Prim::ISub, vec![LExp::Var(n), LExp::Int(1)]),
                    LExp::Prim(Prim::IAdd, vec![LExp::Var(acc), LExp::Var(n)]),
                ],
            )),
        );
        let e = LExp::Fix {
            funs: vec![FixFun {
                var: f,
                params: vec![(n, LTy::Int), (acc, LTy::Int)],
                ret: LTy::Int,
                body,
            }],
            body: Box::new(LExp::App(
                Box::new(LExp::Var(f)),
                vec![LExp::Int(1_000_000), LExp::Int(0)],
            )),
        };
        let out = run(&e);
        assert!(matches!(out.value, Value::Int(500_000_500_000)));
    }

    #[test]
    fn print_collects_output() {
        let e = LExp::Prim(Prim::Print, vec![LExp::Str("hi".into())]);
        assert_eq!(run(&e).output, "hi");
    }

    #[test]
    fn refs_are_mutable() {
        let mut vars = VarTable::new();
        let r = vars.fresh("r");
        // let r = ref 1 in (r := 5; !r)
        let e = LExp::Let {
            var: r,
            ty: LTy::Ref(Box::new(LTy::Int)),
            rhs: Box::new(LExp::Prim(Prim::RefNew, vec![LExp::Int(1)])),
            body: Box::new(LExp::Let {
                var: vars.fresh("_"),
                ty: LTy::Unit,
                rhs: Box::new(LExp::Prim(Prim::RefSet, vec![LExp::Var(r), LExp::Int(5)])),
                body: Box::new(LExp::Prim(Prim::RefGet, vec![LExp::Var(r)])),
            }),
        };
        assert!(matches!(run(&e).value, Value::Int(5)));
    }

    #[test]
    fn fuel_limits_execution() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        let e = LExp::Fix {
            funs: vec![FixFun {
                var: f,
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: LExp::App(Box::new(LExp::Var(f)), vec![LExp::Var(x)]),
            }],
            body: Box::new(LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(0)])),
        };
        assert_eq!(
            eval(&e, &ExnEnv::new(), Some(1000)).unwrap_err(),
            EvalError::OutOfFuel
        );
    }

    #[test]
    fn overflow_raises() {
        let e = LExp::Prim(Prim::IMul, vec![LExp::Int(i64::MAX), LExp::Int(2)]);
        assert_eq!(
            eval(&e, &ExnEnv::new(), None).unwrap_err(),
            EvalError::UncaughtException("Overflow".to_string())
        );
    }

    #[test]
    fn arrays_bounds_checked() {
        let mut vars = VarTable::new();
        let a = vars.fresh("a");
        let e = LExp::Let {
            var: a,
            ty: LTy::Array(Box::new(LTy::Int)),
            rhs: Box::new(LExp::Prim(Prim::ArrNew, vec![LExp::Int(3), LExp::Int(7)])),
            body: Box::new(LExp::Prim(Prim::ArrSub, vec![LExp::Var(a), LExp::Int(5)])),
        };
        assert_eq!(
            eval(&e, &ExnEnv::new(), None).unwrap_err(),
            EvalError::UncaughtException("Subscript".to_string())
        );
    }

    #[test]
    fn sml_number_formatting() {
        assert_eq!(fmt_sml_int(-3), "~3");
        assert_eq!(
            fmt_sml_int(i64::MIN),
            format!("~{}", (i64::MIN as i128).unsigned_abs())
        );
        assert_eq!(fmt_sml_real(2.0), "2.0");
        assert_eq!(fmt_sml_real(-0.5), "~0.5");
    }
}
