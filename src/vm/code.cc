#include "vm/code.hh"

#include "support/logging.hh"
#include "support/str.hh"

namespace rigor {
namespace vm {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "NOP";
      case Op::LoadConst: return "LOAD_CONST";
      case Op::LoadFast: return "LOAD_FAST";
      case Op::StoreFast: return "STORE_FAST";
      case Op::LoadGlobal: return "LOAD_GLOBAL";
      case Op::StoreGlobal: return "STORE_GLOBAL";
      case Op::LoadName: return "LOAD_NAME";
      case Op::StoreName: return "STORE_NAME";
      case Op::LoadAttr: return "LOAD_ATTR";
      case Op::StoreAttr: return "STORE_ATTR";
      case Op::LoadSubscr: return "LOAD_SUBSCR";
      case Op::StoreSubscr: return "STORE_SUBSCR";
      case Op::DeleteSubscr: return "DELETE_SUBSCR";
      case Op::BinaryAdd: return "BINARY_ADD";
      case Op::BinarySub: return "BINARY_SUB";
      case Op::BinaryMul: return "BINARY_MUL";
      case Op::BinaryDiv: return "BINARY_DIV";
      case Op::BinaryFloorDiv: return "BINARY_FLOOR_DIV";
      case Op::BinaryMod: return "BINARY_MOD";
      case Op::BinaryPow: return "BINARY_POW";
      case Op::BinaryAnd: return "BINARY_AND";
      case Op::BinaryOr: return "BINARY_OR";
      case Op::BinaryXor: return "BINARY_XOR";
      case Op::BinaryLshift: return "BINARY_LSHIFT";
      case Op::BinaryRshift: return "BINARY_RSHIFT";
      case Op::UnaryNeg: return "UNARY_NEG";
      case Op::UnaryNot: return "UNARY_NOT";
      case Op::CompareEq: return "COMPARE_EQ";
      case Op::CompareNe: return "COMPARE_NE";
      case Op::CompareLt: return "COMPARE_LT";
      case Op::CompareLe: return "COMPARE_LE";
      case Op::CompareGt: return "COMPARE_GT";
      case Op::CompareGe: return "COMPARE_GE";
      case Op::CompareIn: return "COMPARE_IN";
      case Op::CompareNotIn: return "COMPARE_NOT_IN";
      case Op::Jump: return "JUMP";
      case Op::PopJumpIfFalse: return "POP_JUMP_IF_FALSE";
      case Op::PopJumpIfTrue: return "POP_JUMP_IF_TRUE";
      case Op::JumpIfFalseOrPop: return "JUMP_IF_FALSE_OR_POP";
      case Op::JumpIfTrueOrPop: return "JUMP_IF_TRUE_OR_POP";
      case Op::GetIter: return "GET_ITER";
      case Op::ForIter: return "FOR_ITER";
      case Op::Call: return "CALL";
      case Op::Return: return "RETURN";
      case Op::Pop: return "POP";
      case Op::Dup: return "DUP";
      case Op::DupTwo: return "DUP_TWO";
      case Op::RotTwo: return "ROT_TWO";
      case Op::RotThree: return "ROT_THREE";
      case Op::BuildList: return "BUILD_LIST";
      case Op::BuildTuple: return "BUILD_TUPLE";
      case Op::BuildDict: return "BUILD_DICT";
      case Op::BuildSlice: return "BUILD_SLICE";
      case Op::UnpackSequence: return "UNPACK_SEQUENCE";
      case Op::MakeFunction: return "MAKE_FUNCTION";
      case Op::MakeClass: return "MAKE_CLASS";
      case Op::SetupExcept: return "SETUP_EXCEPT";
      case Op::PopExcept: return "POP_EXCEPT";
      case Op::Raise: return "RAISE";
      case Op::ListAppend: return "LIST_APPEND";
      case Op::AddIntInt: return "ADD_INT_INT";
      case Op::SubIntInt: return "SUB_INT_INT";
      case Op::MulIntInt: return "MUL_INT_INT";
      case Op::AddFloatFloat: return "ADD_FLOAT_FLOAT";
      case Op::SubFloatFloat: return "SUB_FLOAT_FLOAT";
      case Op::MulFloatFloat: return "MUL_FLOAT_FLOAT";
      case Op::CompareLtIntInt: return "COMPARE_LT_INT_INT";
      case Op::CompareLeIntInt: return "COMPARE_LE_INT_INT";
      case Op::CompareGtIntInt: return "COMPARE_GT_INT_INT";
      case Op::CompareGeIntInt: return "COMPARE_GE_INT_INT";
      case Op::CompareEqIntInt: return "COMPARE_EQ_INT_INT";
      case Op::ForIterRange: return "FOR_ITER_RANGE";
      case Op::LoadAttrCached: return "LOAD_ATTR_CACHED";
      case Op::LoadGlobalCached: return "LOAD_GLOBAL_CACHED";
      case Op::LoadFastLoadFast: return "LOAD_FAST_LOAD_FAST";
      case Op::LoadFastBinaryAdd: return "LOAD_FAST_BINARY_ADD";
      case Op::NumOpcodes: break;
    }
    return "?";
}

bool
opIsJump(Op op)
{
    switch (op) {
      case Op::Jump:
      case Op::PopJumpIfFalse:
      case Op::PopJumpIfTrue:
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
      case Op::ForIter:
      case Op::ForIterRange:
        return true;
      default:
        return false;
    }
}

int
stackEffect(const CodeObject &code, const Instr &ins, bool jump)
{
    switch (ins.op) {
      case Op::Nop:
      case Op::LoadAttr:
      case Op::UnaryNeg:
      case Op::UnaryNot:
      case Op::Jump:
      case Op::GetIter:
      case Op::RotTwo:
      case Op::RotThree:
      case Op::MakeClass:
      case Op::SetupExcept:
      case Op::PopExcept:
        return 0;
      case Op::LoadConst:
      case Op::LoadFast:
      case Op::LoadGlobal:
      case Op::LoadName:
      case Op::Dup:
        return 1;
      case Op::StoreFast:
      case Op::StoreGlobal:
      case Op::StoreName:
      case Op::LoadSubscr:
      case Op::BinaryAdd:
      case Op::BinarySub:
      case Op::BinaryMul:
      case Op::BinaryDiv:
      case Op::BinaryFloorDiv:
      case Op::BinaryMod:
      case Op::BinaryPow:
      case Op::BinaryAnd:
      case Op::BinaryOr:
      case Op::BinaryXor:
      case Op::BinaryLshift:
      case Op::BinaryRshift:
      case Op::CompareEq:
      case Op::CompareNe:
      case Op::CompareLt:
      case Op::CompareLe:
      case Op::CompareGt:
      case Op::CompareGe:
      case Op::CompareIn:
      case Op::CompareNotIn:
      case Op::PopJumpIfFalse:
      case Op::PopJumpIfTrue:
      case Op::Return:
      case Op::Pop:
      case Op::Raise:
      case Op::ListAppend:
        return -1;
      case Op::StoreAttr:
      case Op::DeleteSubscr:
        return -2;
      case Op::StoreSubscr:
        return -3;
      case Op::DupTwo:
        return 2;
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
        return jump ? 0 : -1;
      case Op::ForIter:
        // The next item, or on exhaustion the iterator dropped.
        return jump ? -1 : 1;
      case Op::Call:
        return -ins.arg;  // callee and args -> result
      case Op::BuildList:
      case Op::BuildTuple:
      case Op::BuildSlice:
        return 1 - ins.arg;
      case Op::BuildDict:
        return 1 - 2 * ins.arg;
      case Op::UnpackSequence:
        return ins.arg - 1;
      case Op::MakeFunction:
        return 1 - code.children[static_cast<size_t>(ins.arg)]
                       ->numDefaults;
      case Op::AddIntInt:
      case Op::SubIntInt:
      case Op::MulIntInt:
      case Op::AddFloatFloat:
      case Op::SubFloatFloat:
      case Op::MulFloatFloat:
      case Op::CompareLtIntInt:
      case Op::CompareLeIntInt:
      case Op::CompareGtIntInt:
      case Op::CompareGeIntInt:
      case Op::CompareEqIntInt:
      case Op::ForIterRange:
      case Op::LoadAttrCached:
      case Op::LoadGlobalCached:
      case Op::LoadFastLoadFast:
      case Op::LoadFastBinaryAdd:
      case Op::NumOpcodes:
        break;
    }
    panic("stackEffect: %s is not a compiled opcode", opName(ins.op));
}

int
CodeObject::addConstant(const Value &v)
{
    for (size_t i = 0; i < constants.size(); ++i) {
        // Only pool-dedupe same-type scalars and strings; equals() on
        // ints/floats mixes types, so require matching tags.
        if (constants[i].tag() == v.tag() && constants[i].equals(v))
            return static_cast<int>(i);
    }
    constants.push_back(v);
    return static_cast<int>(constants.size() - 1);
}

int
CodeObject::addName(const std::string &n)
{
    for (size_t i = 0; i < nameStrings.size(); ++i) {
        if (nameStrings[i] == n)
            return static_cast<int>(i);
    }
    nameStrings.push_back(n);
    names.push_back(makeStr(n));
    return static_cast<int>(nameStrings.size() - 1);
}

std::string
CodeObject::disassemble(int indent) const
{
    std::string pad(static_cast<size_t>(indent), ' ');
    std::string out = pad + "code " + name + " (params=" +
        std::to_string(numParams) + ", locals=" +
        std::to_string(numLocals) + ")\n";
    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instr &ins = instrs[i];
        out += pad + "  " + padLeft(std::to_string(i), 4) + "  " +
            padRight(opName(ins.op), 22);
        out += std::to_string(ins.arg);
        switch (ins.op) {
          case Op::LoadConst:
            if (ins.arg >= 0 &&
                static_cast<size_t>(ins.arg) < constants.size())
                out += "  (" +
                    constants[static_cast<size_t>(ins.arg)].repr() + ")";
            break;
          case Op::LoadGlobal:
          case Op::StoreGlobal:
          case Op::LoadName:
          case Op::StoreName:
          case Op::LoadAttr:
          case Op::StoreAttr:
          case Op::LoadAttrCached:
          case Op::LoadGlobalCached:
            if (ins.arg >= 0 &&
                static_cast<size_t>(ins.arg) < nameStrings.size())
                out += "  (" +
                    nameStrings[static_cast<size_t>(ins.arg)] + ")";
            break;
          case Op::LoadFast:
          case Op::StoreFast:
          case Op::LoadFastBinaryAdd:
            if (ins.arg >= 0 &&
                static_cast<size_t>(ins.arg) < varNames.size())
                out += "  (" +
                    varNames[static_cast<size_t>(ins.arg)] + ")";
            break;
          case Op::LoadFastLoadFast:
            if ((ins.arg >> 16) >= 0 &&
                static_cast<size_t>(ins.arg >> 16) < varNames.size() &&
                static_cast<size_t>(ins.arg & 0xffff) < varNames.size())
                out += "  (" +
                    varNames[static_cast<size_t>(ins.arg >> 16)] + ", " +
                    varNames[static_cast<size_t>(ins.arg & 0xffff)] + ")";
            break;
          default:
            break;
        }
        out += "\n";
    }
    for (const auto &child : children)
        out += child->disassemble(indent + 4);
    return out;
}

size_t
CodeObject::totalInstrs() const
{
    size_t n = instrs.size();
    for (const auto &child : children)
        n += child->totalInstrs();
    return n;
}

} // namespace vm
} // namespace rigor
