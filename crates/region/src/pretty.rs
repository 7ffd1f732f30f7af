//! Pretty printer for RegionExp (`--dump-regions` style output and golden
//! tests).

use crate::rexp::{Arm, ExpId, Mult, RExp, RProgram, RegVar, Span, StrId};
use std::fmt::Write as _;

/// Renders a RegionExp program, including its global regions.
pub fn program_to_string(p: &RProgram) -> String {
    let mut out = String::new();
    let globals: Vec<String> = p.globals.iter().map(|(r, m)| reg_str(*r, *m)).collect();
    let _ = writeln!(out, "globals [{}]", globals.join(", "));
    let mut pr = Printer {
        p,
        out: &mut out,
        indent: 0,
    };
    pr.exp(p.body);
    out
}

fn reg_str(r: RegVar, m: Mult) -> String {
    match m {
        Mult::Finite => format!("r{}:1", r.0),
        Mult::Infinite => format!("r{}:inf", r.0),
    }
}

/// Renders one expression of `p`.
pub fn exp_to_string(p: &RProgram, e: ExpId) -> String {
    let mut out = String::new();
    let mut pr = Printer {
        p,
        out: &mut out,
        indent: 0,
    };
    pr.exp(e);
    out
}

/// `r1,r2,..` for a region list.
fn regions(p: &RProgram, rs: Span<RegVar>) -> String {
    let rs: Vec<String> = p.places(rs).iter().map(|r| format!("r{}", r.0)).collect();
    rs.join(",")
}

struct Printer<'a> {
    p: &'a RProgram,
    out: &'a mut String,
    indent: usize,
}

impl Printer<'_> {
    fn nl(&mut self) {
        let _ = write!(self.out, "\n{}", "  ".repeat(self.indent));
    }

    fn name(&mut self, v: kit_lambda::exp::VarId) {
        let _ = write!(self.out, "{}_{}", self.p.vars.name(v), v.0);
    }

    fn arms(&mut self, arms: Span<Arm>, key: impl Fn(&RProgram, i64) -> String) {
        let p = self.p;
        for &Arm { key: k, body } in p.arms(arms) {
            self.nl();
            let _ = write!(self.out, "| {} => ", key(p, k));
            self.exp(body);
        }
    }

    fn default(&mut self, d: ExpId) {
        self.nl();
        self.out.push_str("| _ => ");
        self.exp(d);
    }

    fn at(&mut self, r: Option<RegVar>) {
        if let Some(r) = r {
            let _ = write!(self.out, " at r{}", r.0);
        }
    }

    fn exp(&mut self, id: ExpId) {
        let p = self.p;
        match p.node(id) {
            RExp::Var(v) => self.name(v),
            RExp::FixVar { var, rargs, at } => {
                self.name(var);
                let _ = write!(self.out, "[{}] at r{}", regions(p, rargs), at.0);
            }
            RExp::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            RExp::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            RExp::Unit => self.out.push_str("()"),
            RExp::Str(s) => {
                let _ = write!(self.out, "{:?}", p.str(s));
            }
            RExp::Real(x, r) => {
                let _ = write!(self.out, "{x} at r{}", r.0);
            }
            RExp::Prim(prim, args, at) => {
                let _ = write!(self.out, "{prim:?}(");
                self.list(p.kids(args));
                self.out.push(')');
                self.at(at);
            }
            RExp::Record(es, r) => {
                self.out.push('(');
                self.list(p.kids(es));
                let _ = write!(self.out, ") at r{}", r.0);
            }
            RExp::Select(i, e) => {
                let _ = write!(self.out, "#{i} ");
                self.exp(e);
            }
            RExp::Con {
                tycon,
                con,
                arg,
                at,
            } => {
                let _ = write!(self.out, "C{}#{}", tycon.0, con.0);
                if let Some(a) = arg {
                    self.out.push('(');
                    self.exp(a);
                    self.out.push(')');
                }
                self.at(at);
            }
            RExp::DeCon { scrut, .. } => {
                self.out.push_str("decon ");
                self.exp(scrut);
            }
            RExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                self.out.push_str("case ");
                self.exp(scrut);
                self.indent += 1;
                self.arms(arms, |_, k| format!("#{k}"));
                if let Some(d) = default {
                    self.default(d);
                }
                self.indent -= 1;
            }
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                self.out.push_str("caseint ");
                self.exp(scrut);
                self.indent += 1;
                self.arms(arms, |_, k| k.to_string());
                self.default(default);
                self.indent -= 1;
            }
            RExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                self.out.push_str("casestr ");
                self.exp(scrut);
                self.indent += 1;
                self.arms(arms, |p, k| format!("{:?}", p.str(StrId(k as u32))));
                self.default(default);
                self.indent -= 1;
            }
            RExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                self.out.push_str("caseexn ");
                self.exp(scrut);
                self.indent += 1;
                self.arms(arms, |_, k| format!("exn#{k}"));
                self.default(default);
                self.indent -= 1;
            }
            RExp::If(c, t, f) => {
                self.out.push_str("if ");
                self.exp(c);
                self.out.push_str(" then ");
                self.exp(t);
                self.out.push_str(" else ");
                self.exp(f);
            }
            RExp::Fn { params, body, at } => {
                self.out.push_str("(fn (");
                self.params(params);
                self.out.push_str(") => ");
                self.exp(body);
                let _ = write!(self.out, ") at r{}", at.0);
            }
            RExp::App {
                callee,
                rargs,
                args,
            } => {
                self.out.push('[');
                self.exp(callee);
                self.out.push(']');
                if !rargs.is_empty() {
                    let _ = write!(self.out, "[{}]", regions(p, rargs));
                }
                self.out.push('(');
                self.list(p.kids(args));
                self.out.push(')');
            }
            RExp::Let { var, rhs, body } => {
                self.out.push_str("let ");
                self.name(var);
                self.out.push_str(" = ");
                self.exp(rhs);
                self.nl();
                self.out.push_str("in ");
                self.exp(body);
            }
            RExp::Fix { funs, body, at } => {
                for (i, f) in p.funs(funs).iter().enumerate() {
                    self.out.push_str(if i == 0 { "fix " } else { "and " });
                    self.name(f.var);
                    let _ = write!(self.out, "[{}](", regions(p, f.formals));
                    self.params(f.params);
                    let _ = write!(self.out, ") at r{} = ", at.0);
                    self.indent += 1;
                    self.nl();
                    self.exp(f.body);
                    self.indent -= 1;
                    self.nl();
                }
                self.out.push_str("in ");
                self.exp(body);
            }
            RExp::Letregion { regs, body } => {
                let rs: Vec<String> = p.regs(regs).iter().map(|(r, m)| reg_str(*r, *m)).collect();
                let _ = write!(self.out, "letregion {} in", rs.join(", "));
                self.indent += 1;
                self.nl();
                self.exp(body);
                self.indent -= 1;
                self.nl();
                self.out.push_str("end");
            }
            RExp::Marker { id, body } => {
                let _ = write!(self.out, "<marker {id}> ");
                self.exp(body);
            }
            RExp::ExCon { exn, arg, at } => {
                let _ = write!(self.out, "exn#{}", exn.0);
                if let Some(a) = arg {
                    self.out.push('(');
                    self.exp(a);
                    self.out.push(')');
                }
                self.at(at);
            }
            RExp::DeExn { scrut, .. } => {
                self.out.push_str("deexn ");
                self.exp(scrut);
            }
            RExp::Raise(e) => {
                self.out.push_str("raise ");
                self.exp(e);
            }
            RExp::Handle { body, var, handler } => {
                self.out.push('(');
                self.exp(body);
                self.out.push_str(") handle ");
                self.name(var);
                self.out.push_str(" => ");
                self.exp(handler);
            }
        }
    }

    fn params(&mut self, params: Span<kit_lambda::exp::VarId>) {
        let p = self.p;
        for (i, &v) in p.params(params).iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.name(v);
        }
    }

    fn list(&mut self, es: &[ExpId]) {
        for (i, &e) in es.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.exp(e);
        }
    }
}
