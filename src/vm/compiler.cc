#include "vm/compiler.hh"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "support/logging.hh"
#include "vm/parser.hh"

namespace rigor {
namespace vm {

CompileError::CompileError(std::string msg, int line_)
    : line(line_),
      message("CompileError: " + std::move(msg) + " (line " +
              std::to_string(line_) + ")")
{}

namespace {

/** Collects comprehension loop variables inside an expression. */
void
collectExprTargets(const Expr *e, std::set<std::string> &assigned)
{
    if (!e)
        return;
    if (e->kind == ExprKind::ListComp)
        assigned.insert(e->strValue);
    collectExprTargets(e->lhs.get(), assigned);
    collectExprTargets(e->rhs.get(), assigned);
    for (const auto &item : e->items)
        collectExprTargets(item.get(), assigned);
}

/** Collects names assigned anywhere in a statement list. */
void
collectAssigned(const std::vector<StmtPtr> &body,
                std::set<std::string> &assigned,
                std::set<std::string> &globals)
{
    // Collect target names out of an assignment target expression.
    auto collectTarget = [&](const Expr &target) {
        if (target.kind == ExprKind::Name) {
            assigned.insert(target.strValue);
        } else if (target.kind == ExprKind::TupleLit) {
            for (const auto &item : target.items)
                if (item->kind == ExprKind::Name)
                    assigned.insert(item->strValue);
        }
    };

    // Walk nested control-flow blocks, but *not* nested function or
    // class bodies — those are separate scopes.
    std::vector<const std::vector<StmtPtr> *> stack = {&body};
    while (!stack.empty()) {
        const auto *block = stack.back();
        stack.pop_back();
        for (const auto &s : *block) {
            switch (s->kind) {
              case StmtKind::Assign:
              case StmtKind::AugAssign:
                collectTarget(*s->target);
                break;
              case StmtKind::For:
                collectTarget(*s->target);
                stack.push_back(&s->body);
                break;
              case StmtKind::If:
                stack.push_back(&s->body);
                stack.push_back(&s->orelse);
                break;
              case StmtKind::While:
                stack.push_back(&s->body);
                break;
              case StmtKind::Try:
                stack.push_back(&s->body);
                stack.push_back(&s->orelse);
                break;
              case StmtKind::FunctionDef:
              case StmtKind::ClassDef:
                assigned.insert(s->name);
                break;
              case StmtKind::Global:
                for (const auto &n : s->globalNames)
                    globals.insert(n);
                break;
              default:
                break;
            }
            // Comprehension loop variables bind in the enclosing
            // scope (a documented divergence from Python 3, where
            // comprehensions get their own scope).
            collectExprTargets(s->expr.get(), assigned);
            collectExprTargets(s->target.get(), assigned);
            for (const auto &d : s->defaults)
                collectExprTargets(d.get(), assigned);
        }
    }
}

/** Compiles one code object (module, function or class body). */
class FunctionCompiler
{
  public:
    enum class ScopeKind { Module, Function, ClassBody };

    FunctionCompiler(Program &prog_, ScopeKind scope_kind)
        : prog(prog_), scopeKind(scope_kind)
    {
        code = std::make_unique<CodeObject>();
        code->codeId = prog.codeCount++;
        code->isClassBody = scope_kind == ScopeKind::ClassBody;
    }

    /** Compile a function body and return the finished code object. */
    std::unique_ptr<CodeObject>
    compileFunction(const Stmt &def)
    {
        code->name = def.name;
        code->numParams = static_cast<int>(def.params.size());
        code->numDefaults = static_cast<int>(def.defaults.size());

        std::set<std::string> assigned, globals;
        collectAssigned(def.body, assigned, globals);
        globalDecls = globals;
        for (const auto &p : def.params)
            defineLocal(p);
        for (const auto &n : assigned)
            if (!globals.count(n))
                defineLocal(n);

        compileBlock(def.body);
        emitImplicitReturn();
        code->numLocals = static_cast<int>(code->varNames.size());
        return std::move(code);
    }

    /** Compile the module body. */
    std::unique_ptr<CodeObject>
    compileTopLevel(const std::vector<StmtPtr> &body, std::string name)
    {
        code->name = std::move(name);
        compileBlock(body);
        emitImplicitReturn();
        code->numLocals = 0;
        return std::move(code);
    }

  private:
    // --- Emission helpers ---------------------------------------------

    /**
     * Append an instruction and track the operand-stack depth along
     * the fall-through path, keeping code->maxStack at its peak. The
     * code is emitted in structured order, so the running depth is
     * the depth of every path into the next instruction, except where
     * compileFor and `break` correct it.
     */
    size_t
    emit(Op op, int32_t arg = 0)
    {
        code->instrs.push_back({op, arg});
        depth += stackEffect(*code, code->instrs.back(), false);
        if (depth < 0)
            panic("compiler: operand stack underflow in %s",
                  code->name.c_str());
        code->maxStack = std::max(code->maxStack, depth);
        return code->instrs.size() - 1;
    }

    /** Emit a jump whose target is patched later. */
    size_t
    emitJump(Op op)
    {
        return emit(op, -1);
    }

    /** Patch a previously emitted jump to point at the current pc. */
    void
    patchJump(size_t at)
    {
        code->instrs[at].arg =
            static_cast<int32_t>(code->instrs.size());
    }

    int32_t
    here() const
    {
        return static_cast<int32_t>(code->instrs.size());
    }

    void
    emitImplicitReturn()
    {
        int none_idx = code->addConstant(Value());
        emit(Op::LoadConst, none_idx);
        emit(Op::Return);
    }

    int
    defineLocal(const std::string &name)
    {
        auto it = localSlots.find(name);
        if (it != localSlots.end())
            return it->second;
        int slot = static_cast<int>(code->varNames.size());
        code->varNames.push_back(name);
        localSlots.emplace(name, slot);
        return slot;
    }

    [[noreturn]] void
    error(const std::string &msg, int line)
    {
        throw CompileError(msg, line);
    }

    // --- Name access -----------------------------------------------------

    void
    emitLoadVar(const std::string &name, int line)
    {
        (void)line;
        if (scopeKind == ScopeKind::Function) {
            auto it = localSlots.find(name);
            if (it != localSlots.end() && !globalDecls.count(name)) {
                emit(Op::LoadFast, it->second);
                return;
            }
            emit(Op::LoadGlobal, code->addName(name));
            return;
        }
        if (scopeKind == ScopeKind::ClassBody) {
            emit(Op::LoadName, code->addName(name));
            return;
        }
        emit(Op::LoadGlobal, code->addName(name));
    }

    void
    emitStoreVar(const std::string &name, int line)
    {
        (void)line;
        if (scopeKind == ScopeKind::Function) {
            if (!globalDecls.count(name)) {
                auto it = localSlots.find(name);
                if (it == localSlots.end())
                    panic("compiler: unanalyzed local '%s'",
                          name.c_str());
                emit(Op::StoreFast, it->second);
                return;
            }
            emit(Op::StoreGlobal, code->addName(name));
            return;
        }
        if (scopeKind == ScopeKind::ClassBody) {
            emit(Op::StoreName, code->addName(name));
            return;
        }
        emit(Op::StoreGlobal, code->addName(name));
    }

    // --- Statements -------------------------------------------------------

    void
    compileBlock(const std::vector<StmtPtr> &body)
    {
        for (const auto &s : body)
            compileStatement(*s);
    }

    void
    compileStatement(const Stmt &s)
    {
        switch (s.kind) {
          case StmtKind::ExprStmt:
            compileExpr(*s.expr);
            emit(Op::Pop);
            break;
          case StmtKind::Assign:
            compileAssign(s);
            break;
          case StmtKind::AugAssign:
            compileAugAssign(s);
            break;
          case StmtKind::If:
            compileIf(s);
            break;
          case StmtKind::While:
            compileWhile(s);
            break;
          case StmtKind::For:
            compileFor(s);
            break;
          case StmtKind::Break: {
            if (loops.empty())
                error("'break' outside loop", s.line);
            if (tryDepth > loops.back().tryDepthAtEntry)
                error("'break' out of a 'try' block is not "
                      "supported",
                      s.line);
            // For-loops keep their iterator on the stack; discard it.
            // Only the break path loses it: the code after the jump
            // is still at the loop body's depth.
            bool for_loop = loops.back().isForLoop;
            if (for_loop)
                emit(Op::Pop);
            size_t j = emitJump(Op::Jump);
            if (for_loop)
                ++depth;
            loops.back().breakJumps.push_back(j);
            break;
          }
          case StmtKind::Continue: {
            if (loops.empty())
                error("'continue' outside loop", s.line);
            if (tryDepth > loops.back().tryDepthAtEntry)
                error("'continue' out of a 'try' block is not "
                      "supported",
                      s.line);
            emit(Op::Jump, loops.back().continueTarget);
            break;
          }
          case StmtKind::Pass:
            break;
          case StmtKind::Return: {
            if (scopeKind != ScopeKind::Function)
                error("'return' outside function", s.line);
            if (s.expr) {
                compileExpr(*s.expr);
            } else {
                emit(Op::LoadConst, code->addConstant(Value()));
            }
            emit(Op::Return);
            break;
          }
          case StmtKind::FunctionDef:
            compileFunctionDef(s);
            break;
          case StmtKind::ClassDef:
            compileClassDef(s);
            break;
          case StmtKind::Global:
            if (scopeKind != ScopeKind::Function)
                break;  // no-op at module level
            break;
          case StmtKind::Del: {
            const Expr &t = *s.target;
            compileExpr(*t.lhs);
            compileExpr(*t.rhs);
            emit(Op::DeleteSubscr);
            break;
          }
          case StmtKind::Try: {
            size_t setup = emitJump(Op::SetupExcept);
            ++tryDepth;
            compileBlock(s.body);
            --tryDepth;
            emit(Op::PopExcept);
            size_t end_jump = emitJump(Op::Jump);
            patchJump(setup);
            compileBlock(s.orelse);
            patchJump(end_jump);
            break;
          }
          case StmtKind::Raise:
            compileExpr(*s.expr);
            emit(Op::Raise);
            break;
          case StmtKind::Assert: {
            compileExpr(*s.expr);
            size_t ok_jump = emitJump(Op::PopJumpIfTrue);
            if (s.target) {
                compileExpr(*s.target);
            } else {
                emit(Op::LoadConst,
                     code->addConstant(
                         makeStr("AssertionError (line " +
                                 std::to_string(s.line) + ")")));
            }
            emit(Op::Raise);
            patchJump(ok_jump);
            break;
          }
        }
    }

    void
    compileAssign(const Stmt &s)
    {
        const Expr &t = *s.target;
        switch (t.kind) {
          case ExprKind::Name:
            compileExpr(*s.expr);
            emitStoreVar(t.strValue, s.line);
            break;
          case ExprKind::Attribute:
            compileExpr(*t.lhs);
            compileExpr(*s.expr);
            emit(Op::StoreAttr, code->addName(t.strValue));
            break;
          case ExprKind::Subscript:
            compileExpr(*t.lhs);
            compileSubscriptIndex(*t.rhs);
            compileExpr(*s.expr);
            emit(Op::StoreSubscr);
            break;
          case ExprKind::TupleLit: {
            compileExpr(*s.expr);
            emit(Op::UnpackSequence,
                 static_cast<int32_t>(t.items.size()));
            for (const auto &item : t.items)
                emitStoreVar(item->strValue, s.line);
            break;
          }
          default:
            error("invalid assignment target", s.line);
        }
    }

    Op
    binOpcode(BinOp op)
    {
        switch (op) {
          case BinOp::Add: return Op::BinaryAdd;
          case BinOp::Sub: return Op::BinarySub;
          case BinOp::Mul: return Op::BinaryMul;
          case BinOp::Div: return Op::BinaryDiv;
          case BinOp::FloorDiv: return Op::BinaryFloorDiv;
          case BinOp::Mod: return Op::BinaryMod;
          case BinOp::Pow: return Op::BinaryPow;
          case BinOp::BitAnd: return Op::BinaryAnd;
          case BinOp::BitOr: return Op::BinaryOr;
          case BinOp::BitXor: return Op::BinaryXor;
          case BinOp::LShift: return Op::BinaryLshift;
          case BinOp::RShift: return Op::BinaryRshift;
        }
        panic("binOpcode: bad operator");
    }

    void
    compileAugAssign(const Stmt &s)
    {
        const Expr &t = *s.target;
        switch (t.kind) {
          case ExprKind::Name:
            emitLoadVar(t.strValue, s.line);
            compileExpr(*s.expr);
            emit(binOpcode(s.augOp));
            emitStoreVar(t.strValue, s.line);
            break;
          case ExprKind::Attribute:
            compileExpr(*t.lhs);
            emit(Op::Dup);
            emit(Op::LoadAttr, code->addName(t.strValue));
            compileExpr(*s.expr);
            emit(binOpcode(s.augOp));
            emit(Op::StoreAttr, code->addName(t.strValue));
            break;
          case ExprKind::Subscript:
            compileExpr(*t.lhs);
            compileSubscriptIndex(*t.rhs);
            emit(Op::DupTwo);
            emit(Op::LoadSubscr);
            compileExpr(*s.expr);
            emit(binOpcode(s.augOp));
            emit(Op::StoreSubscr);
            break;
          default:
            error("invalid augmented-assignment target", s.line);
        }
    }

    void
    compileIf(const Stmt &s)
    {
        compileExpr(*s.expr);
        size_t else_jump = emitJump(Op::PopJumpIfFalse);
        compileBlock(s.body);
        if (s.orelse.empty()) {
            patchJump(else_jump);
            return;
        }
        size_t end_jump = emitJump(Op::Jump);
        patchJump(else_jump);
        compileBlock(s.orelse);
        patchJump(end_jump);
    }

    void
    compileWhile(const Stmt &s)
    {
        int32_t loop_start = here();
        compileExpr(*s.expr);
        size_t exit_jump = emitJump(Op::PopJumpIfFalse);
        loops.push_back({loop_start, false, tryDepth, {}});
        compileBlock(s.body);
        emit(Op::Jump, loop_start);
        patchJump(exit_jump);
        for (size_t j : loops.back().breakJumps)
            patchJump(j);
        loops.pop_back();
    }

    void
    compileFor(const Stmt &s)
    {
        compileExpr(*s.expr);
        emit(Op::GetIter);
        int32_t loop_start = here();
        size_t exit_jump = emitJump(Op::ForIter);
        // Store the loop variable(s).
        const Expr &t = *s.target;
        if (t.kind == ExprKind::Name) {
            emitStoreVar(t.strValue, s.line);
        } else {
            emit(Op::UnpackSequence,
                 static_cast<int32_t>(t.items.size()));
            for (const auto &item : t.items)
                emitStoreVar(item->strValue, s.line);
        }
        loops.push_back({loop_start, true, tryDepth, {}});
        compileBlock(s.body);
        emit(Op::Jump, loop_start);
        patchJump(exit_jump);
        for (size_t j : loops.back().breakJumps)
            patchJump(j);
        loops.pop_back();
        // The exhausted ForIter pops the iterator itself.
        --depth;
    }

    void
    compileFunctionDef(const Stmt &s)
    {
        FunctionCompiler child(prog, ScopeKind::Function);
        auto child_code = child.compileFunction(s);
        int child_idx = static_cast<int>(code->children.size());
        code->children.push_back(std::move(child_code));
        // Defaults are evaluated at definition time, left-to-right.
        for (const auto &d : s.defaults)
            compileExpr(*d);
        emit(Op::MakeFunction, child_idx);
        emitStoreVar(s.name, s.line);
    }

    void
    compileClassDef(const Stmt &s)
    {
        FunctionCompiler body(prog, ScopeKind::ClassBody);
        auto body_code = body.compileTopLevel(s.body, s.name);
        int child_idx = static_cast<int>(code->children.size());
        code->children.push_back(std::move(body_code));
        if (!s.baseName.empty()) {
            emitLoadVar(s.baseName, s.line);
        } else {
            emit(Op::LoadConst, code->addConstant(Value()));
        }
        emit(Op::MakeClass, child_idx);
        emitStoreVar(s.name, s.line);
    }

    // --- Expressions -------------------------------------------------------

    void
    compileSubscriptIndex(const Expr &index)
    {
        if (index.kind != ExprKind::SliceExpr) {
            compileExpr(index);
            return;
        }
        int none_idx = code->addConstant(Value());
        for (int i = 0; i < 3; ++i) {
            if (index.items[static_cast<size_t>(i)])
                compileExpr(*index.items[static_cast<size_t>(i)]);
            else
                emit(Op::LoadConst, none_idx);
        }
        emit(Op::BuildSlice, 3);
    }

    void
    compileExpr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
            emit(Op::LoadConst,
                 code->addConstant(Value::makeInt(e.intValue)));
            break;
          case ExprKind::FloatLit:
            emit(Op::LoadConst,
                 code->addConstant(Value::makeFloat(e.floatValue)));
            break;
          case ExprKind::StrLit:
            emit(Op::LoadConst,
                 code->addConstant(makeStr(e.strValue)));
            break;
          case ExprKind::BoolLit:
            emit(Op::LoadConst,
                 code->addConstant(Value::makeBool(e.boolValue)));
            break;
          case ExprKind::NoneLit:
            emit(Op::LoadConst, code->addConstant(Value()));
            break;
          case ExprKind::Name:
            emitLoadVar(e.strValue, e.line);
            break;
          case ExprKind::Unary:
            compileExpr(*e.lhs);
            if (e.unOp == UnOp::Neg) {
                emit(Op::UnaryNeg);
            } else if (e.unOp == UnOp::Not) {
                emit(Op::UnaryNot);
            } else {
                // ~x == -x - 1 for ints; lower it that way.
                emit(Op::UnaryNeg);
                emit(Op::LoadConst,
                     code->addConstant(Value::makeInt(1)));
                emit(Op::BinarySub);
            }
            break;
          case ExprKind::Binary:
            compileExpr(*e.lhs);
            compileExpr(*e.rhs);
            emit(binOpcode(e.binOp));
            break;
          case ExprKind::Compare: {
            compileExpr(*e.lhs);
            compileExpr(*e.rhs);
            Op op;
            switch (e.cmpOp) {
              case CmpOp::Eq: op = Op::CompareEq; break;
              case CmpOp::Ne: op = Op::CompareNe; break;
              case CmpOp::Lt: op = Op::CompareLt; break;
              case CmpOp::Le: op = Op::CompareLe; break;
              case CmpOp::Gt: op = Op::CompareGt; break;
              case CmpOp::Ge: op = Op::CompareGe; break;
              case CmpOp::In: op = Op::CompareIn; break;
              case CmpOp::NotIn: op = Op::CompareNotIn; break;
              default: panic("bad compare op");
            }
            emit(op);
            break;
          }
          case ExprKind::BoolChain: {
            Op jump_op = e.isAnd ? Op::JumpIfFalseOrPop
                                 : Op::JumpIfTrueOrPop;
            std::vector<size_t> jumps;
            for (size_t i = 0; i < e.items.size(); ++i) {
                compileExpr(*e.items[i]);
                if (i + 1 < e.items.size())
                    jumps.push_back(emitJump(jump_op));
            }
            for (size_t j : jumps)
                patchJump(j);
            break;
          }
          case ExprKind::Call: {
            compileExpr(*e.lhs);
            for (const auto &arg : e.items)
                compileExpr(*arg);
            emit(Op::Call, static_cast<int32_t>(e.items.size()));
            break;
          }
          case ExprKind::Attribute:
            compileExpr(*e.lhs);
            emit(Op::LoadAttr, code->addName(e.strValue));
            break;
          case ExprKind::Subscript:
            compileExpr(*e.lhs);
            compileSubscriptIndex(*e.rhs);
            emit(Op::LoadSubscr);
            break;
          case ExprKind::SliceExpr:
            error("slice outside subscript", e.line);
            break;
          case ExprKind::ListLit:
            for (const auto &item : e.items)
                compileExpr(*item);
            emit(Op::BuildList,
                 static_cast<int32_t>(e.items.size()));
            break;
          case ExprKind::TupleLit:
            for (const auto &item : e.items)
                compileExpr(*item);
            emit(Op::BuildTuple,
                 static_cast<int32_t>(e.items.size()));
            break;
          case ExprKind::DictLit:
            for (const auto &item : e.items)
                compileExpr(*item);
            emit(Op::BuildDict,
                 static_cast<int32_t>(e.items.size() / 2));
            break;
          case ExprKind::ListComp: {
            // Desugar: L = []; for var in iterable: (if cond:)
            // L.append(value) — with L and the iterator kept on the
            // stack throughout.
            const Expr &value = *e.items[0];
            const Expr &iterable = *e.items[1];
            const Expr *cond = e.items[2].get();
            emit(Op::BuildList, 0);
            compileExpr(iterable);
            emit(Op::GetIter);
            int32_t loop_start = here();
            size_t exit_jump = emitJump(Op::ForIter);
            emitStoreVar(e.strValue, e.line);
            if (cond) {
                compileExpr(*cond);
                emit(Op::PopJumpIfFalse, loop_start);
            }
            compileExpr(value);
            emit(Op::ListAppend, 2);
            emit(Op::Jump, loop_start);
            patchJump(exit_jump);
            --depth;  // the exhausted ForIter dropped the iterator
            break;
          }
        }
    }

    struct LoopInfo
    {
        int32_t continueTarget;
        bool isForLoop;
        int tryDepthAtEntry;
        std::vector<size_t> breakJumps;
    };

    Program &prog;
    ScopeKind scopeKind;
    std::unique_ptr<CodeObject> code;
    std::unordered_map<std::string, int> localSlots;
    std::set<std::string> globalDecls;
    std::vector<LoopInfo> loops;
    int tryDepth = 0;
    /** Operand-stack depth after the last emitted instruction. */
    int depth = 0;
};

} // namespace

Program
compileModule(const Module &module, const std::string &source_name)
{
    Program prog;
    prog.sourceName = source_name;
    FunctionCompiler top(prog, FunctionCompiler::ScopeKind::Module);
    prog.module = top.compileTopLevel(module.body, "<module>");
    return prog;
}

Program
compileSource(const std::string &source, const std::string &source_name)
{
    Module m = parse(source);
    return compileModule(m, source_name);
}

} // namespace vm
} // namespace rigor
