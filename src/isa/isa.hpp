// Instruction-set definition for the simulated 32-bit guest CPU.
//
// This is a small subset of i386 with *byte-exact* encodings wherever the
// paper's mechanisms depend on the bit patterns:
//
//   - UD2 is `0F 0B` and raises an invalid-opcode trap (the view filler).
//   - The shifted pair `0B ..` decodes as a VALID instruction (OR r32,r32,
//     as on real x86) and does NOT trap — this is the odd-address
//     misinterpretation that motivates the paper's "instant recovery".
//   - Function prologues are `55 89 E5` (push ebp; mov ebp,esp), the
//     signature FACE-CHANGE searches for to find function boundaries.
//   - Syscall dispatch is `FF 14 85 imm32` (call *imm32(,%eax,4)), exactly
//     the instruction shown in the paper's Figure 3.
//
// Register numbering follows i386 (so PUSH FP really is 0x55):
//   0=A(eax) 1=C(ecx) 2=D(edx) 3=B(ebx) 4=SP(esp) 5=FP(ebp) 6=SI 7=DI
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>

#include "support/types.hpp"

namespace fc::isa {

enum class Reg : u8 {
  A = 0,   // eax: syscall number / return value
  C = 1,   // ecx: syscall arg 2
  D = 2,   // edx: syscall arg 3
  B = 3,   // ebx: syscall arg 1
  SP = 4,  // esp
  FP = 5,  // ebp: frame pointer (backtrace chain)
  SI = 6,
  DI = 7,
};
inline constexpr int kNumRegs = 8;

const char* reg_name(Reg r);

enum class Op : u8 {
  kNop,         // 90
  kPush,        // 50+r
  kPop,         // 58+r
  kMovRR,       // 89 /modrm(mod=11)        dst=rm, src=reg
  kLoad,        // 8B /modrm(mod=01) disp8  dst=reg, src=[rm+disp8]
  kStore,       // 89 /modrm(mod=01) disp8  [rm+disp8]=reg
  kMovImm,      // B8+r imm32
  kLoadAbs,     // A1 imm32                 A = [imm32]
  kStoreAbs,    // A3 imm32                 [imm32] = A
  kAdd,         // 01 /modrm(mod=11)
  kSub,         // 29 /modrm(mod=11)
  kXor,         // 31 /modrm(mod=11)
  kOr,          // 0B /modrm(mod=11)        dst=reg, src=rm (x86 OR r32,r/m32)
  kCmp,         // 39 /modrm(mod=11)
  kCmpImmA,     // 3D imm32                 compare A with imm32
  kAddImmA,     // 05 imm32
  kSubImmA,     // 2D imm32
  kCall,        // E8 rel32
  kCallTab,     // FF 14 85 imm32           call [imm32 + A*4]
  kRet,         // C3
  kLeave,       // C9
  kJmp,         // E9 rel32
  kJmpShort,    // EB rel8
  kJz,          // 74 rel8
  kJnz,         // 75 rel8
  kJzNear,      // 0F 84 rel32
  kJnzNear,     // 0F 85 rel32
  kInt,         // CD imm8                  software interrupt (syscall: 0x80)
  kIret,        // CF
  kHlt,         // F4                       idle until interrupt
  kPusha,       // 60                       push all 8 GPRs (x86 order)
  kPopa,        // 61                       pop all 8 GPRs (skips saved ESP)
  kCli,         // FA                       disable interrupts (kernel only)
  kSti,         // FB                       enable interrupts (kernel only)
  kUd2,         // 0F 0B                    invalid-opcode trap (view filler)
  kKsvc,        // 0F 05 imm16              kernel service (device/OS semantics)
  kAppStep,     // 0F 06                    user-mode: ask app model for next op
  kRdtsc,       // 0F 31                    A = cycles lo, D = cycles hi
};

/// A decoded instruction. `length` is the encoded size in bytes. The byte
/// fields lead so the struct packs into 12 bytes: block caches and the
/// decode store hold one per decoded instruction.
struct Instruction {
  Op op = Op::kNop;
  Reg r1 = Reg::A;  // destination / pushed / popped register
  Reg r2 = Reg::A;  // source register
  u8 length = 1;
  i32 disp = 0;     // memory displacement (kLoad/kStore) or branch rel
  u32 imm = 0;      // immediate (imm32 / imm16 / imm8)

  /// Branch/call target for PC-relative instructions, given this
  /// instruction's own address.
  GVirt rel_target(GVirt pc) const {
    return pc + length + static_cast<u32>(disp);
  }
};

enum class DecodeStatus {
  kOk,
  kInvalidOpcode,  // the bytes do not form a valid instruction (#UD)
  kTruncated,      // ran off the end of the provided window
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kInvalidOpcode;
  Instruction insn;
  bool ok() const { return status == DecodeStatus::kOk; }
};

/// Longest possible instruction encoding (CALLTAB: FF 14 85 + imm32).
inline constexpr u32 kMaxInstructionLength = 7;

/// Decode one instruction from `bytes` (a window starting at the
/// instruction's first byte).
DecodeResult decode(std::span<const u8> bytes);

/// Is this opcode a control-flow instruction (ends a basic block)?
bool is_control_flow(Op op);

/// Forward iteration over the instructions of a code window — the decoder
/// API static analysis builds on (callgraph construction, hazard scans).
///
/// `window` holds the bytes of [base, base + window.size()); the cursor
/// starts at `base` and advances by each decoded instruction's length.
/// next() decodes at the current position without advancing the cursor on
/// failure, so callers can inspect `status()` and `pc()` at the stop point.
class InstructionCursor {
 public:
  InstructionCursor(std::span<const u8> window, GVirt base)
      : window_(window), base_(base) {}

  /// Decode the instruction at pc(). On success fills `out` and advances;
  /// returns false (leaving the cursor in place) at the window end or on an
  /// undecodable byte sequence.
  bool next(Instruction* out);

  GVirt pc() const { return base_ + offset_; }
  bool at_end() const { return offset_ >= window_.size(); }
  /// Status of the most recent next() call (kOk until a failure).
  DecodeStatus status() const { return status_; }

 private:
  std::span<const u8> window_;
  GVirt base_;
  std::size_t offset_ = 0;
  DecodeStatus status_ = DecodeStatus::kOk;
};

/// Render an instruction in AT&T-ish style for logs, e.g.
/// "call 0xc0219970". Targets are not symbolized here; callers with a
/// symbol table append "<name>" themselves.
std::string disasm(const Instruction& insn, GVirt pc);

}  // namespace fc::isa
