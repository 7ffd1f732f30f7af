//! Built-in functions of the initial basis.
//!
//! Each builtin has a type (possibly polymorphic or overloaded, generated
//! fresh per use) and a lowering to a [`Prim`]. Builtins applied directly
//! are lowered to primitive applications; builtins used as values are
//! eta-expanded by the lowerer.

use crate::types::{InferCtx, TvKind, TyId};
use kit_lambda::exp::Prim;

/// A built-in function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `print : string -> unit`
    Print,
    /// `itos : int -> string`
    Itos,
    /// `rtos : real -> string`
    Rtos,
    /// `chr : int -> string`
    Chr,
    /// `real : int -> real`
    RealOf,
    /// `floor : real -> int`
    Floor,
    /// `trunc : real -> int`
    Trunc,
    /// `sqrt : real -> real`
    Sqrt,
    /// `sin : real -> real`
    Sin,
    /// `cos : real -> real`
    Cos,
    /// `atan : real -> real`
    Atan,
    /// `ln : real -> real`
    Ln,
    /// `exp : real -> real`
    Exp,
    /// `size : string -> int`
    Size,
    /// `strsub : string * int -> int`
    StrSub,
    /// `ref : 'a -> 'a ref`
    RefNew,
    /// `array : int * 'a -> 'a array`
    Array,
    /// `asub : 'a array * int -> 'a`
    Asub,
    /// `aupdate : 'a array * int * 'a -> unit`
    Aupdate,
    /// `alength : 'a array -> int`
    Alength,
}

/// All builtins with their source names.
pub const ALL: &[(&str, Builtin)] = &[
    ("print", Builtin::Print),
    ("itos", Builtin::Itos),
    ("rtos", Builtin::Rtos),
    ("chr", Builtin::Chr),
    ("real", Builtin::RealOf),
    ("floor", Builtin::Floor),
    ("trunc", Builtin::Trunc),
    ("sqrt", Builtin::Sqrt),
    ("sin", Builtin::Sin),
    ("cos", Builtin::Cos),
    ("atan", Builtin::Atan),
    ("ln", Builtin::Ln),
    ("exp", Builtin::Exp),
    ("size", Builtin::Size),
    ("strsub", Builtin::StrSub),
    ("ref", Builtin::RefNew),
    ("array", Builtin::Array),
    ("asub", Builtin::Asub),
    ("aupdate", Builtin::Aupdate),
    ("alength", Builtin::Alength),
];

impl Builtin {
    /// A fresh instance of the builtin's type.
    pub fn fresh_ty(self, cx: &mut InferCtx) -> TyId {
        use Builtin::*;
        let (param, result) = match self {
            Print => (TyId::STR, TyId::UNIT),
            Itos => (TyId::INT, TyId::STR),
            Rtos => (TyId::REAL, TyId::STR),
            Chr => (TyId::INT, TyId::STR),
            RealOf => (TyId::INT, TyId::REAL),
            Floor | Trunc => (TyId::REAL, TyId::INT),
            Sqrt | Sin | Cos | Atan | Ln | Exp => (TyId::REAL, TyId::REAL),
            Size => (TyId::STR, TyId::INT),
            StrSub => (cx.tuple(&[TyId::STR, TyId::INT]), TyId::INT),
            RefNew => {
                let a = cx.fresh();
                (a, cx.reference(a))
            }
            Array => {
                let a = cx.fresh();
                (cx.tuple(&[TyId::INT, a]), cx.array(a))
            }
            Asub => {
                let a = cx.fresh();
                let arr = cx.array(a);
                (cx.tuple(&[arr, TyId::INT]), a)
            }
            Aupdate => {
                let a = cx.fresh();
                let arr = cx.array(a);
                (cx.tuple(&[arr, TyId::INT, a]), TyId::UNIT)
            }
            Alength => {
                let a = cx.fresh();
                (cx.array(a), TyId::INT)
            }
        };
        cx.arrow(param, result)
    }

    /// The primitive this builtin lowers to, with the number of `LambdaExp`
    /// arguments (tuple parameters are split).
    pub fn prim(self) -> (Prim, usize) {
        use Builtin::*;
        match self {
            Print => (Prim::Print, 1),
            Itos => (Prim::ItoS, 1),
            Rtos => (Prim::RtoS, 1),
            Chr => (Prim::Chr, 1),
            RealOf => (Prim::IntToReal, 1),
            Floor => (Prim::Floor, 1),
            Trunc => (Prim::Trunc, 1),
            Sqrt => (Prim::Sqrt, 1),
            Sin => (Prim::Sin, 1),
            Cos => (Prim::Cos, 1),
            Atan => (Prim::Atan, 1),
            Ln => (Prim::Ln, 1),
            Exp => (Prim::Exp, 1),
            Size => (Prim::StrSize, 1),
            StrSub => (Prim::StrSub, 2),
            RefNew => (Prim::RefNew, 1),
            Array => (Prim::ArrNew, 2),
            Asub => (Prim::ArrSub, 2),
            Aupdate => (Prim::ArrUpd, 3),
            Alength => (Prim::ArrLen, 1),
        }
    }
}

/// A fresh numeric (`int`/`real`) variable — used by overloaded operators.
pub fn fresh_num(cx: &mut InferCtx) -> TyId {
    cx.fresh_kinded(TvKind::Num)
}

/// A fresh ordered (`int`/`real`/`string`) variable.
pub fn fresh_ord(cx: &mut InferCtx) -> TyId {
    cx.fresh_kinded(TvKind::Ord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ty;

    #[test]
    fn arity_matches_tuple_shape() {
        for (_, b) in ALL {
            let mut cx = InferCtx::new();
            let ty = b.fresh_ty(&mut cx);
            let Ty::Arrow(param, _) = cx.node(ty) else {
                panic!("builtin type must be an arrow")
            };
            let expect = match cx.node(param) {
                Ty::Tuple(ts) => ts.len(),
                _ => 1,
            };
            assert_eq!(b.prim().1, expect, "{b:?}");
        }
    }
}
